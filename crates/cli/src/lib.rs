//! Library backing the `confmask` command-line tool.
//!
//! The CLI works on *configuration directories* with the layout a network
//! operator would naturally have:
//!
//! ```text
//! mynet/
//!   routers/   r1.cfg  r2.cfg  …
//!   hosts/     h1.cfg  h2.cfg  …
//! ```
//!
//! Subcommands:
//!
//! * `confmask anonymize --input mynet --output shared [--k-r 6] [--k-h 2]
//!   [--noise 0.1] [--seed 0] [--mode confmask|strawman1|strawman2] [--pii]`
//! * `confmask simulate --input mynet [--trace SRC DST]`
//! * `confmask inspect --input mynet`
//! * `confmask generate --network A..H --output mynet`

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod io;
