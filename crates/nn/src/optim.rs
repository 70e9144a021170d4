//! Optimizers: Adam (with L2 weight decay, as the paper's GNN uses:
//! lr 0.01, weight decay 5e-4) and plain SGD.
//!
//! Parameters are addressed by *slot*: each training step, layers push their
//! `(value, grad)` buffers in a fixed order and the optimizer keeps one
//! moment state per slot, lazily sized on first use.

/// A slot-addressed optimizer.
pub trait Optimizer {
    /// Marks the beginning of a new optimization step (advances internal
    /// step counters).
    fn begin_step(&mut self);
    /// Applies the update of `slot` to `value` given `grad`.
    fn update(&mut self, slot: usize, value: &mut [f32], grad: &[f32]);
}

/// Adam's first-moment decay (PyTorch's default, which every fit uses).
const BETA1: f32 = 0.9;
/// Adam's second-moment decay.
const BETA2: f32 = 0.999;
/// Adam's numerical stabilizer.
const EPS: f32 = 1e-8;

/// Adam configuration: what a fit chooses. The moment decays and the
/// stabilizer are PyTorch's defaults, fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay added to the gradient (PyTorch `Adam(weight_decay=…)`
    /// semantics, which the paper uses — not AdamW).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, weight_decay: 0.0 }
    }
}

/// Adam optimizer state.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    config: AdamConfig,
    t: i32,
    moments: Vec<Option<(Vec<f32>, Vec<f32>)>>,
}

impl Adam {
    /// Creates an Adam optimizer.
    pub fn new(config: AdamConfig) -> Self {
        Self { config, t: 0, moments: Vec::new() }
    }

    /// Current step count.
    pub fn step_count(&self) -> i32 {
        self.t
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn update(&mut self, slot: usize, value: &mut [f32], grad: &[f32]) {
        assert_eq!(value.len(), grad.len(), "value/grad length mismatch");
        if slot >= self.moments.len() {
            self.moments.resize(slot + 1, None);
        }
        let (m, v) = self.moments[slot]
            .get_or_insert_with(|| (vec![0.0; value.len()], vec![0.0; value.len()]));
        assert_eq!(m.len(), value.len(), "slot {slot} reused with a different shape");
        let c = self.config;
        let bc1 = 1.0 - BETA1.powi(self.t.max(1));
        let bc2 = 1.0 - BETA2.powi(self.t.max(1));
        // Zipped, so the four slices are walked without bounds checks and
        // the body vectorizes; `+ − × ÷ √` round the same packed or scalar,
        // so the expression tree below is the whole contract.
        for (((w, &g), m), v) in value.iter_mut().zip(grad).zip(m.iter_mut()).zip(v.iter_mut()) {
            let g = g + c.weight_decay * *w;
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *w -= c.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// Plain SGD with optional L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Self { lr, weight_decay: 0.0 }
    }
}

impl Optimizer for Sgd {
    fn begin_step(&mut self) {}

    fn update(&mut self, _slot: usize, value: &mut [f32], grad: &[f32]) {
        assert_eq!(value.len(), grad.len(), "value/grad length mismatch");
        for (v, &g) in value.iter_mut().zip(grad) {
            *v -= self.lr * (g + self.weight_decay * *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)^2; Adam should converge near 3.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut opt = Adam::new(AdamConfig { lr: 0.1, ..Default::default() });
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            opt.begin_step();
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "x = {}", x[0]);
    }

    /// The indexed loop `Adam::update` replaced, kept as the bitwise
    /// reference: one slot's `(m, v)` at step `t`.
    fn update_indexed(
        c: AdamConfig,
        t: i32,
        (m, v): (&mut [f32], &mut [f32]),
        value: &mut [f32],
        grad: &[f32],
    ) {
        let bc1 = 1.0 - BETA1.powi(t);
        let bc2 = 1.0 - BETA2.powi(t);
        for i in 0..value.len() {
            let g = grad[i] + c.weight_decay * value[i];
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * g;
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            value[i] -= c.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }

    #[test]
    fn adam_update_is_bitwise_the_indexed_loop() {
        // Gradients spanning exact zeros, 1e-22 (its second moment
        // underflows to zero), 1e-20 (a subnormal one) and 1e3, signs
        // mixed; slot lengths on both sides of the vector widths.
        let magnitudes = [0.0f32, -0.0, 1e-22, -1e-20, 3e-5, -0.25, 1.0, 1e3, -1e3];
        for weight_decay in [0.0f32, 5e-4] {
            let config = AdamConfig { lr: 0.01, weight_decay };
            let mut opt = Adam::new(config);
            let lens = [1usize, 2, 7, 8, 33, 4104];
            let mut values: Vec<Vec<f32>> = lens
                .iter()
                .map(|&n| (0..n).map(|i| (i % 13) as f32 * 0.05 - 0.3).collect())
                .collect();
            let mut want = values.clone();
            let mut moments: Vec<(Vec<f32>, Vec<f32>)> =
                lens.iter().map(|&n| (vec![0.0; n], vec![0.0; n])).collect();
            let mut saw_subnormal = false;
            for step in 1..=200 {
                opt.begin_step();
                for (slot, &n) in lens.iter().enumerate() {
                    // Every third element only ever sees the first four
                    // (zero and tiny) gradients, so its moments stay tiny.
                    let grad: Vec<f32> = (0..n)
                        .map(|i| {
                            let span = if i % 3 == 0 { 4 } else { magnitudes.len() };
                            magnitudes[(i * 7 + step * 3 + slot) % span]
                        })
                        .collect();
                    opt.update(slot, &mut values[slot], &grad);
                    let (m, v) = &mut moments[slot];
                    update_indexed(config, step as i32, (m, v), &mut want[slot], &grad);
                    saw_subnormal |= v.iter().any(|x| x.is_subnormal());
                    let got = opt.moments[slot].as_ref().expect("slot sized on first use");
                    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                    assert_eq!(
                        bits(&values[slot]),
                        bits(&want[slot]),
                        "w, slot {slot} step {step}"
                    );
                    assert_eq!(bits(&got.0), bits(m), "m, slot {slot} step {step}");
                    assert_eq!(bits(&got.1), bits(v), "v, slot {slot} step {step}");
                }
            }
            // With weight decay the gradient is `grad + wd·w`, never tiny.
            assert!(
                saw_subnormal || weight_decay > 0.0,
                "the tiny gradients must reach subnormal second moments"
            );
        }
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let mut opt = Sgd::new(0.1);
        let mut x = vec![10.0f32];
        for _ in 0..200 {
            opt.begin_step();
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.update(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut opt = Sgd { lr: 0.1, weight_decay: 0.5 };
        let mut x = vec![1.0f32];
        opt.update(0, &mut x, &[0.0]);
        assert!(x[0] < 1.0);
    }

    #[test]
    fn adam_slots_are_independent() {
        let mut opt = Adam::new(AdamConfig::default());
        let mut a = vec![1.0f32];
        let mut b = vec![1.0f32, 2.0];
        opt.begin_step();
        opt.update(0, &mut a, &[1.0]);
        opt.update(1, &mut b, &[1.0, 1.0]);
        // reusing slot 0 with the same shape is fine
        opt.begin_step();
        opt.update(0, &mut a, &[1.0]);
        assert_eq!(opt.step_count(), 2);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn adam_slot_shape_reuse_panics() {
        let mut opt = Adam::new(AdamConfig::default());
        let mut a = vec![1.0f32];
        opt.begin_step();
        opt.update(0, &mut a, &[1.0]);
        let mut b = vec![1.0f32, 2.0];
        opt.update(0, &mut b, &[1.0, 1.0]);
    }
}
