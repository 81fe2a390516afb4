#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! # dlb-wire
//!
//! The **`dlb-wire/3`** framed byte protocol spoken between the process
//! backend's coordinator ([`Backend::Process`]) and its `dlb-shard-worker`
//! OS processes, together with the byte transports it runs over.
//!
//! The crate is deliberately tiny and dependency-free: everything the
//! engine's message backend exchanges through in-process channels —
//! round commands, owned seeds, halo batches, deltas, results,
//! `Done{ok}` — gets a little-endian, length-prefixed frame here, and
//! nothing else. Serialization is the *only* new moving part of the
//! process backend; shard planning, halo grouping and round sequencing
//! are reused from `dlb-core` unchanged.
//!
//! The protocol is specified byte-by-byte in `docs/WIRE.md` at the
//! repository root; the version-negotiation and forward-compatibility
//! rules live there too. In brief:
//!
//! * A connection opens with a fixed-size **handshake**: the worker
//!   sends `"DLBW"` + version + shard id ([`Hello`]), the coordinator
//!   answers with `"DLBW"` + version ([`HelloAck`]). A garbled magic is
//!   [`WireError::BadMagic`]; a version the peer does not speak is
//!   [`WireError::VersionMismatch`] — both surface *before* any framed
//!   traffic.
//! * Every subsequent message is one **frame**: a one-byte type tag, a
//!   `u32` little-endian payload length, then the payload
//!   ([`Frame::encode`] / [`read_frame`]). Decoders ignore trailing
//!   payload bytes they do not understand (additive evolution) and
//!   reject unknown frame types ([`WireError::UnknownFrame`]).
//! * Load values travel as raw 8-byte little-endian words
//!   (`f64::to_bits` / `i64 as u64`), so the process backend's
//!   bit-identity guarantee is byte-for-byte literal: what leaves the
//!   coordinator is what the worker computes on.
//! * A worker is shard-local: its [`PlanFrame`] carries the owned node
//!   count and, for diffusion sessions, a [`LocalCsrPlan`] — the owned
//!   rows' neighbours as frame positions, every local node's degree and
//!   the halo fill order. No global node id crosses the wire. A plan that
//!   fails [`LocalCsrPlan::validate`] is [`WireError::CorruptPlan`].
//! * The three value frames (`owned-values`, `halo-batch`, `results`)
//!   also have a copy-free path: [`encode_values`] /
//!   [`values_frame_mut`] write them straight from the sender's loads
//!   into a reused buffer, and [`FrameBuf`] reads them into a reused
//!   buffer as [`ValuesFrame`] views the receiver decodes into its own
//!   memory. Both produce and accept exactly the bytes of
//!   [`Frame::encode`] / [`read_frame`]. Plan frames have the same
//!   sender-side path: [`plan_frame_mut`] streams a local CSR kernel
//!   straight from the coordinator's graph and partition, sealing its
//!   fingerprint as it writes.
//!
//! [`Transport`] selects the byte stream underneath — Unix domain
//! sockets first, TCP loopback behind the same enum — and
//! [`CountingStream`] wraps either so [`CommMetrics`] can report framed
//! bytes actually written, not `values × size_of`.
//!
//! ## Encode/decode round trip
//!
//! ```
//! use dlb_wire::{read_frame, Frame};
//!
//! let frame = Frame::OwnedValues { seq: 7, values: vec![1.5f64.to_bits(); 4] };
//! let bytes = frame.encode();
//! let back = read_frame(&mut bytes.as_slice()).unwrap();
//! assert_eq!(back, frame);
//! ```
//!
//! [`Backend::Process`]: https://docs.rs/dlb-core "dlb_core::engine::Backend::Process"
//! [`CommMetrics`]: https://docs.rs/dlb-core "dlb_core::engine::CommMetrics"

mod frame;
mod transport;

pub use frame::{
    encode_values, plan_frame_mut, read_frame, read_hello, read_hello_ack, values_frame_mut,
    write_hello, write_hello_ack, DoneFrame, Frame, FrameBuf, FrameView, GatherKernel, Hello,
    HelloAck, LoadType, LocalCsrPlan, PlanDefect, PlanFrame, PlanFrameMut, RoundCmdFrame,
    RoundMode, ValueKind, ValuesFrame, WordsMut, MAGIC, MAX_FRAME_LEN, WIRE_SCHEMA, WIRE_VERSION,
};
pub use transport::{CountingStream, Transport, WireListener, WireStream};

use std::fmt;
use std::io;

/// Typed failure of the `dlb-wire/3` protocol layer.
///
/// Every corruption mode a byte transport can produce maps to a distinct
/// variant, so the engine can turn "the worker process died mid-round"
/// or "something that is not a worker connected" into a typed
/// `EngineError` instead of a hang or a panic. [`io::Error`]s from the
/// socket itself (including read timeouts) ride along as
/// [`WireError::Io`].
#[derive(Debug)]
pub enum WireError {
    /// The handshake preamble did not start with [`MAGIC`] — the peer is
    /// not speaking dlb-wire at all.
    BadMagic {
        /// The four bytes actually read.
        found: [u8; 4],
    },
    /// The peer speaks dlb-wire, but a different version.
    VersionMismatch {
        /// Version this side implements ([`WIRE_VERSION`]).
        ours: u32,
        /// Version the peer announced.
        theirs: u32,
    },
    /// The stream ended cleanly *between* frames — the peer closed the
    /// connection (for a worker process: it exited or was killed).
    Closed,
    /// The stream ended inside a frame, or a payload was shorter than
    /// its declared fields — a partial write or a corrupted length.
    Truncated {
        /// Frame type tag, when the envelope survived far enough to
        /// carry one.
        frame: Option<u8>,
    },
    /// A frame declared a payload longer than [`MAX_FRAME_LEN`] —
    /// treated as corruption rather than honoured as an allocation.
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// A frame type tag this version does not define.
    UnknownFrame {
        /// The unrecognised tag.
        kind: u8,
    },
    /// A worker refused a plan frame that decoded cleanly but does not
    /// describe a usable shard (see [`LocalCsrPlan::validate`]).
    CorruptPlan(PlanDefect),
    /// The underlying transport failed (includes read/write timeouts).
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?} (expected {:02x?})", MAGIC)
            }
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, peer {theirs}")
            }
            WireError::Closed => write!(f, "connection closed by peer"),
            WireError::Truncated { frame: Some(kind) } => {
                write!(f, "truncated frame (type {kind})")
            }
            WireError::Truncated { frame: None } => write!(f, "truncated frame header"),
            WireError::Oversized { len } => {
                write!(f, "oversized frame ({len} bytes > {MAX_FRAME_LEN} max)")
            }
            WireError::UnknownFrame { kind } => write!(f, "unknown frame type {kind}"),
            WireError::CorruptPlan(defect) => write!(f, "corrupt plan: {defect}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Stable lowercase tag for logs and error payloads.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => "bad-magic",
            WireError::VersionMismatch { .. } => "version-mismatch",
            WireError::Closed => "closed",
            WireError::Truncated { .. } => "truncated",
            WireError::Oversized { .. } => "oversized",
            WireError::UnknownFrame { .. } => "unknown-frame",
            WireError::CorruptPlan(_) => "corrupt-plan",
            WireError::Io(_) => "io",
        }
    }

    /// True when the error means the peer went away (EOF between or
    /// inside frames) rather than sent something malformed — the signal
    /// the coordinator maps to "worker process died".
    pub fn is_disconnect(&self) -> bool {
        match self {
            WireError::Closed => true,
            WireError::Truncated { .. } => true,
            WireError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
            ),
            _ => false,
        }
    }
}
