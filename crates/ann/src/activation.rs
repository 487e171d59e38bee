//! Pointwise activation functions with derivatives.

use serde::{Deserialize, Serialize};

/// Pointwise activation used between linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Leaky ReLU with slope 0.01 on the negative side.
    LeakyRelu,
    /// Identity (no nonlinearity).
    Identity,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Identity => x,
        }
    }

    /// Derivative evaluated at pre-activation `x`.
    #[inline]
    pub fn grad(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Identity => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 4] =
        [Activation::Relu, Activation::Tanh, Activation::LeakyRelu, Activation::Identity];

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn leaky_relu_leaks() {
        assert!((Activation::LeakyRelu.apply(-2.0) + 0.02).abs() < 1e-12);
    }

    #[test]
    fn tanh_saturates() {
        assert!(Activation::Tanh.apply(10.0) > 0.9999);
        assert!(Activation::Tanh.apply(-10.0) < -0.9999);
    }

    #[test]
    fn gradients_match_finite_differences() {
        for act in ALL {
            for &x in &[-1.5, -0.3, 0.2, 1.7] {
                let eps = 1e-6;
                let num = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!(
                    (act.grad(x) - num).abs() < 1e-5,
                    "{act:?} at {x}: {} vs {num}",
                    act.grad(x)
                );
            }
        }
    }
}
