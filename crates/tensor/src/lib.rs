//! # cfx-tensor
//!
//! Dense `f32` tensors and a tape-based reverse-mode autodiff engine —
//! the numerical substrate for the counterfactual-exploration workspace.
//!
//! The paper's models are small multilayer perceptrons (a two-layer
//! black-box classifier and a 5+5-layer conditional VAE), so this crate
//! deliberately implements exactly what those models need and nothing
//! more: 2-D tensors, a fully enumerated differentiable op set, standard
//! initializers, SGD/Adam, and a text parameter format.
//!
//! ## Quick example
//!
//! ```
//! use cfx_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Tensor::row(&[1.0, -2.0, 3.0]));
//! let s = tape.square(x);
//! let loss = tape.sum(s); // Σ x² = 14
//! assert_eq!(tape.value(loss).item(), 14.0);
//! tape.backward(loss);
//! assert_eq!(tape.grad(x).as_slice(), &[2.0, -4.0, 6.0]); // 2x
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod error;
pub mod graph;
pub mod guard;
pub mod init;
pub mod kernel;
pub mod nn;
pub mod optim;
pub mod pool;
pub mod profile;
pub mod runtime;
pub mod tensor;

pub use checkpoint::{
    Checkpoint, CheckpointConfig, CheckpointManager, TrainCheckpoint,
    TrainState,
};
pub use error::CfxError;
pub use graph::{stable_sigmoid, stable_softplus, Tape, Var};
pub use nn::{Activation, Linear, Mlp, Module};
pub use optim::{clip_grad_norm, Adam, AdamState, Optimizer, Sgd};
pub use tensor::Tensor;
