//! The radio propagation model.
//!
//! The paper's formal model is a transmission disk: a node `q` receives `p`'s
//! transmissions iff `dist(p, q) < r_p`. Its simulation, however, ran on
//! SWANS, which models "a real transmission range behavior including
//! distortions, background noise, etc.". [`RadioModel`] covers both:
//!
//! * In **ideal disk** mode (`fading_fraction == 0`) reception succeeds with
//!   probability 1 inside the range and 0 outside — the formal model, used by
//!   deterministic unit and correctness tests.
//! * With a positive `fading_fraction` `f`, links shorter than `r·(1−f)` are
//!   certain, links longer than `r·(1+f)` are dead, and in between the success
//!   probability falls off smoothly — a pragmatic stand-in for log-normal
//!   shadowing that keeps the simulator deterministic per seed.
//! * `background_loss` adds an independent per-reception loss probability
//!   (thermal noise, interference from outside the simulated network).

use crate::geometry::Position;
use crate::rng::SimRng;

/// Radio parameters shared by all nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioConfig {
    /// Nominal transmission range in metres (802.11b-era default: 250 m).
    pub range_m: f64,
    /// Fractional width of the fading band around the nominal range, in
    /// `[0, 1)`. Zero selects the ideal-disk model.
    pub fading_fraction: f64,
    /// Independent per-reception loss probability from background noise.
    pub background_loss: f64,
    /// Carrier-sense range as a multiple of `range_m` (≥ 1). Transmissions
    /// audible within this radius defer CSMA senders and collide receptions.
    pub carrier_sense_factor: f64,
    /// Link bit rate in bits per second (802.11 broadcast frames are sent at
    /// a base rate; default 2 Mb/s).
    pub bitrate_bps: u64,
    /// Fixed per-frame physical-layer overhead in microseconds (preamble +
    /// PLCP header).
    pub phy_overhead_us: u64,
    /// Capture effect: a reception survives overlapping interference when
    /// every interferer is at least this factor farther from the receiver
    /// than the signal source (distance standing in for power under the
    /// disk model). `0.0` disables capture — any overlap collides, the
    /// paper's formal collision model.
    pub capture_ratio: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            range_m: 250.0,
            fading_fraction: 0.1,
            background_loss: 0.005,
            carrier_sense_factor: 1.5,
            bitrate_bps: 2_000_000,
            phy_overhead_us: 192,
            capture_ratio: 0.0,
        }
    }
}

impl RadioConfig {
    /// The ideal-disk model of the paper's formal sections: no fading, no
    /// background noise. Used by deterministic correctness tests.
    pub fn ideal_disk(range_m: f64) -> Self {
        RadioConfig {
            range_m,
            fading_fraction: 0.0,
            background_loss: 0.0,
            carrier_sense_factor: 1.0,
            ..RadioConfig::default()
        }
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.range_m > 0.0 && self.range_m.is_finite()) {
            return Err(format!(
                "range_m must be positive and finite, got {}",
                self.range_m
            ));
        }
        if !(0.0..1.0).contains(&self.fading_fraction) {
            return Err(format!(
                "fading_fraction must be in [0,1), got {}",
                self.fading_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.background_loss) {
            return Err(format!(
                "background_loss must be in [0,1], got {}",
                self.background_loss
            ));
        }
        if !(self.carrier_sense_factor >= 1.0 && self.carrier_sense_factor.is_finite()) {
            return Err(format!(
                "carrier_sense_factor must be finite and >= 1, got {}",
                self.carrier_sense_factor
            ));
        }
        let audible_radius =
            self.range_m * self.carrier_sense_factor * (1.0 + self.fading_fraction);
        if !audible_radius.is_finite() {
            return Err(format!(
                "range_m * carrier_sense_factor overflows, got {audible_radius}"
            ));
        }
        if self.bitrate_bps == 0 {
            return Err("bitrate_bps must be positive".to_owned());
        }
        if self.capture_ratio < 0.0 || !self.capture_ratio.is_finite() {
            return Err(format!(
                "capture_ratio must be a non-negative finite number, got {}",
                self.capture_ratio
            ));
        }
        Ok(())
    }

    /// Air time in microseconds for a frame of `bytes` payload bytes.
    pub fn air_time_us(&self, bytes: usize) -> u64 {
        self.phy_overhead_us + (bytes as u64 * 8 * 1_000_000) / self.bitrate_bps
    }
}

/// Evaluates link quality between positions under a [`RadioConfig`].
#[derive(Clone, Debug)]
pub struct RadioModel {
    config: RadioConfig,
}

impl RadioModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; see [`RadioConfig::validate`].
    pub fn new(config: RadioConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid radio config: {e}");
        }
        RadioModel { config }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// Probability that a frame sent from `tx` is decodable at `rx`,
    /// ignoring collisions and background noise.
    pub fn link_success_probability(&self, tx: &Position, rx: &Position) -> f64 {
        let d = tx.distance(rx);
        let r = self.config.range_m;
        let f = self.config.fading_fraction;
        if f == 0.0 {
            return if d <= r { 1.0 } else { 0.0 };
        }
        let inner = r * (1.0 - f);
        let outer = r * (1.0 + f);
        if d <= inner {
            1.0
        } else if d >= outer {
            0.0
        } else {
            // Smoothstep falloff across the fading band.
            let t = (d - inner) / (outer - inner);
            let s = 1.0 - t;
            s * s * (3.0 - 2.0 * s)
        }
    }

    /// The audible (carrier-sense) radius in metres: beyond this distance a
    /// transmission can neither defer a sender nor corrupt a reception, so
    /// it bounds every spatial query the engine makes.
    pub fn audible_radius(&self) -> f64 {
        self.config.range_m * self.config.carrier_sense_factor * (1.0 + self.config.fading_fraction)
    }

    /// Whether a transmission from `tx` is *audible* at `rx` — strong enough
    /// to defer a CSMA sender or corrupt an overlapping reception, even if
    /// not decodable.
    pub fn audible(&self, tx: &Position, rx: &Position) -> bool {
        let cs = self.audible_radius();
        tx.distance_squared(rx) <= cs * cs
    }

    /// Draws whether a frame from `tx` is received at `rx`, combining link
    /// fading and background noise (but not collisions, which the engine
    /// resolves from transmission overlap).
    pub fn draw_reception(&self, tx: &Position, rx: &Position, rng: &mut SimRng) -> bool {
        let p = self.link_success_probability(tx, rx);
        if p <= 0.0 {
            return false;
        }
        if !rng.gen_bool(p) {
            return false;
        }
        !rng.gen_bool(self.config.background_loss)
    }

    /// Whether a reception from `signal` at `rx` survives interference from
    /// a concurrent transmission at `interferer` — the capture effect.
    /// Always `false` when capture is disabled.
    pub fn captures(&self, signal: &Position, interferer: &Position, rx: &Position) -> bool {
        if self.config.capture_ratio <= 0.0 {
            return false;
        }
        let ds = signal.distance(rx);
        let di = interferer.distance(rx);
        di >= ds * self.config.capture_ratio
    }

    /// Whether two nodes are neighbours under the *formal* disk model — used
    /// to compute ground-truth `N(1, p)` sets in analyses and tests.
    pub fn in_nominal_range(&self, a: &Position, b: &Position) -> bool {
        let r = self.config.range_m;
        a.distance_squared(b) <= r * r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_disk_is_sharp() {
        let m = RadioModel::new(RadioConfig::ideal_disk(100.0));
        let o = Position::new(0.0, 0.0);
        assert_eq!(
            m.link_success_probability(&o, &Position::new(99.0, 0.0)),
            1.0
        );
        assert_eq!(
            m.link_success_probability(&o, &Position::new(101.0, 0.0)),
            0.0
        );
        let mut rng = SimRng::new(1);
        assert!(m.draw_reception(&o, &Position::new(50.0, 0.0), &mut rng));
        assert!(!m.draw_reception(&o, &Position::new(150.0, 0.0), &mut rng));
    }

    #[test]
    fn fading_band_is_monotone() {
        let m = RadioModel::new(RadioConfig {
            range_m: 100.0,
            fading_fraction: 0.2,
            ..RadioConfig::default()
        });
        let o = Position::new(0.0, 0.0);
        let mut last = 1.0;
        for d in [70.0, 80.0, 85.0, 90.0, 100.0, 110.0, 115.0, 120.0, 130.0] {
            let p = m.link_success_probability(&o, &Position::new(d, 0.0));
            assert!(p <= last + 1e-12, "non-monotone at {d}: {p} > {last}");
            last = p;
        }
        assert_eq!(
            m.link_success_probability(&o, &Position::new(79.9, 0.0)),
            1.0
        );
        assert_eq!(
            m.link_success_probability(&o, &Position::new(120.1, 0.0)),
            0.0
        );
    }

    #[test]
    fn audible_extends_beyond_decodable() {
        let m = RadioModel::new(RadioConfig {
            range_m: 100.0,
            fading_fraction: 0.0,
            carrier_sense_factor: 2.0,
            ..RadioConfig::default()
        });
        let o = Position::new(0.0, 0.0);
        assert!(m.audible(&o, &Position::new(150.0, 0.0)));
        assert!(!m.audible(&o, &Position::new(250.0, 0.0)));
        assert_eq!(
            m.link_success_probability(&o, &Position::new(150.0, 0.0)),
            0.0
        );
    }

    #[test]
    fn background_loss_drops_some_frames() {
        let m = RadioModel::new(RadioConfig {
            range_m: 100.0,
            fading_fraction: 0.0,
            background_loss: 0.3,
            ..RadioConfig::default()
        });
        let o = Position::new(0.0, 0.0);
        let rx = Position::new(10.0, 0.0);
        let mut rng = SimRng::new(7);
        let ok = (0..10_000)
            .filter(|_| m.draw_reception(&o, &rx, &mut rng))
            .count();
        let ratio = ok as f64 / 10_000.0;
        assert!((ratio - 0.7).abs() < 0.03, "ratio was {ratio}");
    }

    #[test]
    fn air_time_accounts_for_overhead_and_rate() {
        let c = RadioConfig {
            bitrate_bps: 1_000_000,
            phy_overhead_us: 100,
            ..RadioConfig::default()
        };
        // 125 bytes at 1 Mb/s = 1000 us + 100 us overhead.
        assert_eq!(c.air_time_us(125), 1100);
        assert_eq!(c.air_time_us(0), 100);
    }

    #[test]
    #[should_panic(expected = "invalid radio config")]
    fn invalid_config_panics() {
        RadioModel::new(RadioConfig {
            range_m: -1.0,
            ..RadioConfig::default()
        });
    }

    #[test]
    fn validate_reports_each_field() {
        let base = RadioConfig::default();
        assert!(RadioConfig {
            fading_fraction: 1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(RadioConfig {
            background_loss: 1.5,
            ..base
        }
        .validate()
        .is_err());
        assert!(RadioConfig {
            carrier_sense_factor: 0.5,
            ..base
        }
        .validate()
        .is_err());
        assert!(RadioConfig {
            bitrate_bps: 0,
            ..base
        }
        .validate()
        .is_err());
        // Non-finite geometry would break the spatial grids (an infinite
        // cell size) or make every link silently inaudible (NaN compares
        // false).
        for range_m in [f64::INFINITY, f64::NAN, 0.0, -1.0, f64::MAX] {
            let bad = RadioConfig { range_m, ..base };
            assert!(bad.validate().is_err(), "range_m {range_m} accepted");
        }
        for carrier_sense_factor in [f64::NAN, f64::INFINITY] {
            let bad = RadioConfig {
                carrier_sense_factor,
                ..base
            };
            assert!(
                bad.validate().is_err(),
                "carrier_sense_factor {carrier_sense_factor} accepted"
            );
        }
        assert!(base.validate().is_ok());
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;

    #[test]
    fn capture_disabled_by_default() {
        let m = RadioModel::new(RadioConfig::default());
        let rx = Position::new(0.0, 0.0);
        assert!(!m.captures(&Position::new(10.0, 0.0), &Position::new(1000.0, 0.0), &rx));
    }

    #[test]
    fn near_signal_captures_over_far_interferer() {
        let m = RadioModel::new(RadioConfig {
            capture_ratio: 3.0,
            ..RadioConfig::default()
        });
        let rx = Position::new(0.0, 0.0);
        let near = Position::new(50.0, 0.0);
        let far = Position::new(200.0, 0.0);
        // 200 >= 50 * 3: the near signal survives.
        assert!(m.captures(&near, &far, &rx));
        // The far "signal" does not survive the near interferer.
        assert!(!m.captures(&far, &near, &rx));
        // Comparable distances: nobody captures.
        assert!(!m.captures(&near, &Position::new(60.0, 0.0), &rx));
    }

    #[test]
    fn invalid_capture_ratio_rejected() {
        assert!(RadioConfig {
            capture_ratio: -1.0,
            ..RadioConfig::default()
        }
        .validate()
        .is_err());
        assert!(RadioConfig {
            capture_ratio: f64::NAN,
            ..RadioConfig::default()
        }
        .validate()
        .is_err());
    }
}
