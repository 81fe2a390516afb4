//! The `dlb-wire/3` frame grammar: handshake preamble + typed,
//! length-prefixed frames.
//!
//! Everything here is plain little-endian byte shuffling over `std::io`
//! traits; the byte-level layout is documented in `docs/WIRE.md`. The
//! decoders are written against untrusted input: every read is
//! bounds-checked (`WireError::Truncated`), declared lengths are capped
//! ([`MAX_FRAME_LEN`]), and unknown frame types are rejected instead of
//! skipped.

use crate::WireError;
use std::io::{Read, Write};

/// Four-byte protocol magic opening every handshake: `"DLBW"`.
pub const MAGIC: [u8; 4] = *b"DLBW";

/// Protocol version spoken by this build (`dlb-wire/3`).
pub const WIRE_VERSION: u32 = 3;

/// Schema tag mirroring `dlb-scenario/1` / `dlb-trace/1`: the name the
/// docs, reports and version-negotiation errors refer to.
pub const WIRE_SCHEMA: &str = "dlb-wire/3";

/// Hard cap on a single frame's payload length (1 GiB). A `Plan` frame
/// for half of a million-node torus (its local CSR) runs about ten
/// megabytes; anything near this cap is corruption, not data, and is
/// rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Load element type carried by a session, declared once in the
/// [`PlanFrame`]. Values on the wire are always raw 8-byte
/// little-endian words; this tag tells the worker which `DiffusionLoad`
/// instantiation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadType {
    /// `f64` loads, shipped via `f64::to_bits`.
    F64,
    /// `i64` token counts, shipped via two's-complement bit pattern.
    I64,
}

impl LoadType {
    fn to_u8(self) -> u8 {
        match self {
            LoadType::F64 => 0,
            LoadType::I64 => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(LoadType::F64),
            1 => Some(LoadType::I64),
            _ => None,
        }
    }
}

/// How the worker produces its round result (the `mode` byte of
/// [`RoundCmdFrame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundMode {
    /// The coordinator evaluated the protocol kernel itself; the
    /// `OwnedValues` seed already holds the *new* loads. The worker
    /// scatters them into its frame and echoes its owned slice back —
    /// every value still round-trips the wire, so serialization stays in
    /// the proof obligation for protocols whose kernels cannot ship.
    Precomputed,
    /// The worker evaluates the diffusion gather kernel itself over the
    /// local CSR + divisor factor from its [`PlanFrame`]: `OwnedValues` seeds
    /// the *old* loads, halo batches fill the ghost ring, and the result
    /// is computed in-process on the worker.
    Diffusion,
}

impl RoundMode {
    fn to_u8(self) -> u8 {
        match self {
            RoundMode::Precomputed => 0,
            RoundMode::Diffusion => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(RoundMode::Precomputed),
            1 => Some(RoundMode::Diffusion),
            _ => None,
        }
    }
}

/// Which gather kernel flavour a diffusion-mode worker runs (the
/// `kernel` byte of [`RoundCmdFrame`]). Every flavour computes the same
/// bits; the coordinator forwards its engine's selection so a worker
/// runs the kernel the engine was configured with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherKernel {
    /// The per-node reference loop.
    Scalar,
    /// The degree-run dispatch with unrolled quotient lanes.
    Unrolled,
}

impl GatherKernel {
    fn to_u8(self) -> u8 {
        match self {
            GatherKernel::Scalar => 0,
            GatherKernel::Unrolled => 1,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(GatherKernel::Scalar),
            1 => Some(GatherKernel::Unrolled),
            _ => None,
        }
    }
}

/// Worker→coordinator handshake preamble (16 bytes, fixed layout —
/// *not* a frame, so magic and version are the first bytes on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Wire version the worker speaks.
    pub version: u32,
    /// Shard id the worker was spawned to serve.
    pub shard: u32,
}

/// Coordinator→worker handshake reply (12 bytes, fixed layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Wire version the coordinator speaks.
    pub version: u32,
}

/// The shard execution plan a worker holds between rounds: its owned
/// node count plus (for diffusion-kernel sessions) its local CSR and
/// divisor factor. A worker knows no global node id: its frame holds
/// the owned nodes at positions `0..owned` and, in diffusion sessions,
/// the halo after them. Reships only when the partition or graph changes
/// (`seq` bumps), mirroring the message backend's broadcast key.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFrame {
    /// Plan broadcast sequence — workers reject round commands whose
    /// plan seq they have not installed.
    pub seq: u64,
    /// Shard this plan addresses (checked against the handshake).
    pub shard: u32,
    /// Load element type for the whole session.
    pub load_type: LoadType,
    /// Owned node count. `OwnedValues` and `Results` payloads align to
    /// frame positions `0..owned`.
    pub owned: u32,
    /// Present iff the session runs [`RoundMode::Diffusion`] rounds.
    pub kernel: Option<LocalCsrPlan>,
}

impl PlanFrame {
    /// Checks the plan against the worker it reached, before anything is
    /// allocated from it: it addresses `shard`, its owned rows fit in one
    /// `owned-values` frame, and its local CSR (if any) passes
    /// [`LocalCsrPlan::validate`].
    pub fn validate(&self, shard: u32) -> Result<(), PlanDefect> {
        if self.shard != shard {
            return Err(PlanDefect::WrongShard {
                ours: shard,
                addressed: self.shard,
            });
        }
        let max_rows = (MAX_FRAME_LEN / 8) as usize;
        if self.owned as usize > max_rows {
            return Err(PlanDefect::RowsBeyondFrame {
                owned: self.owned,
                local: max_rows,
            });
        }
        self.kernel
            .as_ref()
            .map_or(Ok(()), |kernel| kernel.validate(self.owned))
    }
}

/// The gather kernel shipped to a diffusion-mode worker: the shard's
/// local CSR, its halo fill order and the divisor factor `k`. Local ids
/// are frame positions: `0..owned` are the owned rows, the rest the
/// halo. The worker derives each slot's divisor `k·max(dᵥ, dᵤ)` from
/// `degrees`.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalCsrPlan {
    /// Global degree of every local node, owned rows first. The owned
    /// rows' degrees are also the row lengths of `slots`; the frame holds
    /// `degrees.len()` values.
    pub degrees: Vec<u32>,
    /// The owned rows' neighbours as local ids, concatenated in the
    /// global CSR's slot order (the gather's summation order).
    pub slots: Vec<u32>,
    /// Halo fill order per source shard: `(src shard, frame positions)`.
    /// `HaloBatch { src }` payloads align to the matching entry; together
    /// the groups name every halo position exactly once.
    pub recv_groups: Vec<(u32, Vec<u32>)>,
    /// Bit pattern of the divisor factor `k`, in the session's load type.
    pub factor: u64,
    /// [`LocalCsrPlan::content_fingerprint`] as the coordinator computed
    /// it; the worker recomputes and compares.
    pub fingerprint: u64,
}

impl LocalCsrPlan {
    /// Builds the plan and seals it with its content fingerprint.
    pub fn new(
        degrees: Vec<u32>,
        slots: Vec<u32>,
        recv_groups: Vec<(u32, Vec<u32>)>,
        factor: u64,
    ) -> LocalCsrPlan {
        let mut plan = LocalCsrPlan {
            degrees,
            slots,
            recv_groups,
            factor,
            fingerprint: 0,
        };
        plan.fingerprint = plan.content_fingerprint();
        plan
    }

    /// FNV-1a over every shipped array and the factor (not over the
    /// `fingerprint` field itself): every `u32` of the encoded kernel
    /// section — list counts, group sources and list words, in wire
    /// order — then the factor. [`PlanFrameMut`] folds the same words as
    /// it writes them.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.list(&self.degrees);
        h.list(&self.slots);
        h.mix(self.recv_groups.len() as u64);
        for (src, positions) in &self.recv_groups {
            h.mix(*src as u64);
            h.list(positions);
        }
        h.mix(self.factor);
        h.0
    }

    /// Checks everything a worker relies on before it indexes anything:
    /// `owned` rows fit, the owned degrees sum to the slot count, every
    /// slot names a local node, the recv groups name every halo position
    /// exactly once, and the fingerprint matches.
    pub fn validate(&self, owned: u32) -> Result<(), PlanDefect> {
        let local = self.degrees.len();
        if owned as usize > local {
            return Err(PlanDefect::RowsBeyondFrame { owned, local });
        }
        let degree_sum: u64 = self.degrees[..owned as usize]
            .iter()
            .map(|&d| d as u64)
            .sum();
        if degree_sum != self.slots.len() as u64 {
            return Err(PlanDefect::DegreeSum {
                degree_sum,
                slots: self.slots.len(),
            });
        }
        if let Some(&slot) = self.slots.iter().find(|&&u| u as usize >= local) {
            return Err(PlanDefect::SlotOutOfRange { slot, local });
        }
        let mut seen = vec![false; local - owned as usize];
        for &position in self.recv_groups.iter().flat_map(|(_, ps)| ps) {
            let halo_index = (position as usize).checked_sub(owned as usize);
            match halo_index.and_then(|i| seen.get_mut(i)) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => return Err(PlanDefect::HaloCoverage { position }),
                None => return Err(PlanDefect::RecvOutsideHalo { position }),
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(PlanDefect::HaloCoverage {
                position: owned + i as u32,
            });
        }
        let actual = self.content_fingerprint();
        if actual != self.fingerprint {
            return Err(PlanDefect::Fingerprint {
                expected: self.fingerprint,
                actual,
            });
        }
        Ok(())
    }
}

/// Why a worker refused a [`PlanFrame`] ([`WireError::CorruptPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDefect {
    /// The plan addresses another shard than the handshake announced.
    WrongShard {
        /// Shard the worker serves.
        ours: u32,
        /// Shard the plan names.
        addressed: u32,
    },
    /// A later plan changed the session's load type.
    LoadTypeChanged,
    /// More owned rows than local nodes, or than one `owned-values`
    /// frame can carry.
    RowsBeyondFrame {
        /// Declared owned rows.
        owned: u32,
        /// Local nodes (`degrees.len()`), or the frame's word capacity.
        local: usize,
    },
    /// The owned rows' degrees do not sum to the slot count.
    DegreeSum {
        /// Sum of the owned degrees.
        degree_sum: u64,
        /// Slots shipped.
        slots: usize,
    },
    /// A slot names no local node.
    SlotOutOfRange {
        /// The offending slot value.
        slot: u32,
        /// Local nodes (`degrees.len()`).
        local: usize,
    },
    /// A recv group position lies outside the halo.
    RecvOutsideHalo {
        /// The offending frame position.
        position: u32,
    },
    /// A halo position is named by no recv group, or by two.
    HaloCoverage {
        /// The first such frame position.
        position: u32,
    },
    /// The shipped arrays do not hash to the shipped fingerprint.
    Fingerprint {
        /// Fingerprint the plan carried.
        expected: u64,
        /// Fingerprint of the arrays received.
        actual: u64,
    },
}

impl std::fmt::Display for PlanDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanDefect::WrongShard { ours, addressed } => {
                write!(f, "plan for shard {addressed} sent to shard {ours}")
            }
            PlanDefect::LoadTypeChanged => write!(f, "load type changed within a session"),
            PlanDefect::RowsBeyondFrame { owned, local } => {
                write!(f, "{owned} owned rows but only {local} local nodes")
            }
            PlanDefect::DegreeSum { degree_sum, slots } => {
                write!(
                    f,
                    "owned degrees sum to {degree_sum}, {slots} slots shipped"
                )
            }
            PlanDefect::SlotOutOfRange { slot, local } => {
                write!(f, "slot {slot} outside the {local} local nodes")
            }
            PlanDefect::RecvOutsideHalo { position } => {
                write!(f, "recv position {position} outside the halo")
            }
            PlanDefect::HaloCoverage { position } => {
                write!(f, "halo position {position} not filled exactly once")
            }
            PlanDefect::Fingerprint { expected, actual } => {
                write!(f, "fingerprint {actual:016x}, plan says {expected:016x}")
            }
        }
    }
}

/// One round command (coordinator → worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundCmdFrame {
    /// Plan seq this round executes under.
    pub seq: u64,
    /// Engine round number (for error attribution and tracing).
    pub round: u64,
    /// How the worker produces its result.
    pub mode: RoundMode,
    /// Exact number of `HaloBatch` frames that follow the owned seed —
    /// the worker never waits for traffic that is not coming, which is
    /// what keeps a dead coordinator an EOF instead of a deadlock.
    pub halo_batches: u32,
    /// Kernel flavour for diffusion rounds.
    pub kernel: GatherKernel,
}

/// Round completion receipt (worker → coordinator). `ok = false` means
/// the worker caught a kernel panic or an invariant violation and the
/// round must surface a typed `EngineError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneFrame {
    /// Plan seq the round ran under.
    pub seq: u64,
    /// Whether the round body succeeded.
    pub ok: bool,
}

/// One `dlb-wire/3` frame. On the wire: `[type: u8][len: u32 LE][payload]`.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Install a shard plan (coordinator → worker).
    Plan(PlanFrame),
    /// Execute one round (coordinator → worker).
    RoundCmd(RoundCmdFrame),
    /// Owned load seed, aligned to the plan's `owned` order
    /// (coordinator → worker).
    OwnedValues {
        /// Plan seq the seed belongs to.
        seq: u64,
        /// Raw 8-byte value words.
        values: Vec<u64>,
    },
    /// Halo values from one source shard, aligned to the matching
    /// `recv_groups` entry (coordinator → worker in the hub topology).
    HaloBatch {
        /// Plan seq the batch belongs to.
        seq: u64,
        /// Source shard whose boundary values these are.
        src: u32,
        /// Raw 8-byte value words.
        values: Vec<u64>,
    },
    /// Round receipt (worker → coordinator).
    Done(DoneFrame),
    /// Post-round owned values in plan `owned` order
    /// (worker → coordinator).
    Results {
        /// Plan seq the results belong to.
        seq: u64,
        /// Raw 8-byte value words.
        values: Vec<u64>,
    },
    /// Orderly shutdown (coordinator → worker).
    Exit,
}

const T_PLAN: u8 = 1;
const T_ROUND_CMD: u8 = 2;
const T_OWNED: u8 = 3;
const T_HALO: u8 = 4;
const T_DONE: u8 = 7;
const T_RESULTS: u8 = 8;
const T_EXIT: u8 = 11;

/// The FNV-1a state behind [`LocalCsrPlan::content_fingerprint`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn step(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    }

    #[inline]
    fn mix(&mut self, x: u64) {
        self.0 = Fnv::step(self.0, x);
    }

    fn list(&mut self, xs: &[u32]) {
        self.mix(xs.len() as u64);
        for &x in xs {
            self.mix(x as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Payload writer: appends little-endian primitives to a Vec<u8>.

struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The plan payload's fields before the kernel tag.
    fn plan_header(&mut self, seq: u64, shard: u32, load_type: LoadType, owned: u32) {
        self.u64(seq);
        self.u32(shard);
        self.u8(load_type.to_u8());
        self.u32(owned);
    }

    /// Grows the buffer by `count` zeroed `N`-byte words and returns
    /// them, so a list is written with one resize instead of one
    /// `extend_from_slice` per element.
    fn words<const N: usize>(&mut self, count: usize) -> std::slice::ChunksExactMut<'_, u8> {
        let at = self.buf.len();
        self.buf.resize(at + N * count, 0);
        self.buf[at..].chunks_exact_mut(N)
    }

    fn u32_list(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for (w, v) in self.words::<4>(vs.len()).zip(vs) {
            w.copy_from_slice(&v.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// Payload reader: bounds-checked little-endian reads off a byte slice.

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: u8,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], frame: u8) -> Self {
        Dec { buf, pos: 0, frame }
    }

    fn short(&self) -> WireError {
        WireError::Truncated {
            frame: Some(self.frame),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short())?;
        if end > self.buf.len() {
            return Err(self.short());
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-counted list, pre-checking the count against the
    /// remaining payload so a corrupted length cannot drive a huge
    /// allocation before the bounds check fires.
    fn len(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(elem_size) > self.buf.len() - self.pos {
            return Err(self.short());
        }
        Ok(count)
    }

    fn u32_list(&mut self) -> Result<Vec<u32>, WireError> {
        let count = self.len(4)?;
        let bytes = self.take(4 * count)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect())
    }

    /// A `list<u64>` as its raw little-endian bytes, not decoded.
    fn word_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let count = self.len(8)?;
        self.take(count * 8)
    }
}

impl Frame {
    /// Frame type tag as it appears on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Plan(_) => T_PLAN,
            Frame::RoundCmd(_) => T_ROUND_CMD,
            Frame::OwnedValues { .. } => T_OWNED,
            Frame::HaloBatch { .. } => T_HALO,
            Frame::Done(_) => T_DONE,
            Frame::Results { .. } => T_RESULTS,
            Frame::Exit => T_EXIT,
        }
    }

    /// Stable name for tracing and error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Plan(_) => "plan",
            Frame::RoundCmd(_) => "round-cmd",
            Frame::OwnedValues { .. } => "owned-values",
            Frame::HaloBatch { .. } => "halo-batch",
            Frame::Done(_) => "done",
            Frame::Results { .. } => "results",
            Frame::Exit => "exit",
        }
    }

    /// Encodes the frame as one contiguous byte vector
    /// (`[type][len LE][payload]`).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the encoded frame to `buf`, so a sender can batch a
    /// round's frames into one reused buffer and one write.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::OwnedValues { seq, values } => {
                encode_values(buf, ValueKind::Owned, *seq, values.iter().copied())
            }
            Frame::HaloBatch { seq, src, values } => encode_values(
                buf,
                ValueKind::Halo { src: *src },
                *seq,
                values.iter().copied(),
            ),
            Frame::Results { seq, values } => {
                encode_values(buf, ValueKind::Results, *seq, values.iter().copied())
            }
            _ => self.encode_other(buf),
        }
    }

    /// [`Frame::encode_into`] for every frame but the three value frames.
    fn encode_other(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        let mut e = Enc { buf };
        // Envelope placeholder: type + length patched after the payload.
        e.u8(self.kind());
        e.u32(0);
        match self {
            Frame::Plan(p) => {
                e.plan_header(p.seq, p.shard, p.load_type, p.owned);
                match &p.kernel {
                    None => e.u8(0),
                    Some(k) => {
                        e.u8(1);
                        e.u32_list(&k.degrees);
                        e.u32_list(&k.slots);
                        e.u32(k.recv_groups.len() as u32);
                        for (src, positions) in &k.recv_groups {
                            e.u32(*src);
                            e.u32_list(positions);
                        }
                        e.u64(k.factor);
                        e.u64(k.fingerprint);
                    }
                }
            }
            Frame::RoundCmd(c) => {
                e.u64(c.seq);
                e.u64(c.round);
                e.u8(c.mode.to_u8());
                e.u32(c.halo_batches);
                e.u8(c.kernel.to_u8());
            }
            Frame::Done(d) => {
                e.u64(d.seq);
                e.u8(d.ok as u8);
            }
            Frame::OwnedValues { .. } | Frame::HaloBatch { .. } | Frame::Results { .. } => {
                unreachable!("value frames encode through encode_values")
            }
            Frame::Exit => {}
        }
        let len = (e.buf.len() - start - 5) as u32;
        e.buf[start + 1..start + 5].copy_from_slice(&len.to_le_bytes());
    }

    /// Decodes one frame payload. Trailing payload bytes beyond the
    /// fields this version knows are ignored — the `dlb-wire/3` additive
    /// forward-compatibility rule.
    fn decode(kind: u8, payload: &[u8]) -> Result<Frame, WireError> {
        if let Some(values) = ValuesFrame::decode(kind, payload)? {
            return Ok(values.to_frame());
        }
        let mut d = Dec::new(payload, kind);
        let frame = match kind {
            T_PLAN => {
                let seq = d.u64()?;
                let shard = d.u32()?;
                let load_type = LoadType::from_u8(d.u8()?).ok_or_else(|| d.short())?;
                let owned = d.u32()?;
                let kernel = match d.u8()? {
                    0 => None,
                    _ => {
                        let degrees = d.u32_list()?;
                        let slots = d.u32_list()?;
                        let groups = d.len(8)?;
                        let mut recv_groups = Vec::with_capacity(groups);
                        for _ in 0..groups {
                            let src = d.u32()?;
                            recv_groups.push((src, d.u32_list()?));
                        }
                        Some(LocalCsrPlan {
                            degrees,
                            slots,
                            recv_groups,
                            factor: d.u64()?,
                            fingerprint: d.u64()?,
                        })
                    }
                };
                Frame::Plan(PlanFrame {
                    seq,
                    shard,
                    load_type,
                    owned,
                    kernel,
                })
            }
            T_ROUND_CMD => Frame::RoundCmd(RoundCmdFrame {
                seq: d.u64()?,
                round: d.u64()?,
                mode: RoundMode::from_u8(d.u8()?).ok_or_else(|| d.short())?,
                halo_batches: d.u32()?,
                kernel: GatherKernel::from_u8(d.u8()?).ok_or_else(|| d.short())?,
            }),
            T_DONE => Frame::Done(DoneFrame {
                seq: d.u64()?,
                ok: d.u8()? != 0,
            }),
            T_EXIT => Frame::Exit,
            other => return Err(WireError::UnknownFrame { kind: other }),
        };
        Ok(frame)
    }
}

// ---------------------------------------------------------------------------
// Value frames without a Vec<u64>: encoded straight from the sender's
// loads, decoded straight into the receiver's memory.

/// Which value frame a [`ValuesFrame`] is (`owned-values`, `halo-batch`
/// or `results`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// `owned-values` (coordinator → worker).
    Owned,
    /// `halo-batch` from shard `src` (coordinator → worker).
    Halo {
        /// Source shard whose boundary values these are.
        src: u32,
    },
    /// `results` (worker → coordinator).
    Results,
}

impl ValueKind {
    fn tag(self) -> u8 {
        match self {
            ValueKind::Owned => T_OWNED,
            ValueKind::Halo { .. } => T_HALO,
            ValueKind::Results => T_RESULTS,
        }
    }
}

/// Appends one value frame of `kind` to `buf`, its words taken from
/// `words` — byte for byte what [`Frame::encode`] writes for the
/// matching [`Frame`], without materializing the `Vec<u64>`.
pub fn encode_values(
    buf: &mut Vec<u8>,
    kind: ValueKind,
    seq: u64,
    words: impl ExactSizeIterator<Item = u64>,
) {
    let count = words.len();
    let mut area = values_frame_mut(buf, kind, seq, count);
    let mut filled = 0;
    for word in words {
        area.set(filled, word);
        filled += 1;
    }
    assert_eq!(filled, count, "iterator yielded a different length");
}

/// Appends the envelope and header of a value frame carrying `count`
/// words to `buf` and returns its zeroed word area, for a sender that
/// produces the words out of iterator order (a gather's emit callback).
pub fn values_frame_mut(
    buf: &mut Vec<u8>,
    kind: ValueKind,
    seq: u64,
    count: usize,
) -> WordsMut<'_> {
    let halo_src = match kind {
        ValueKind::Halo { src } => Some(src),
        ValueKind::Owned | ValueKind::Results => None,
    };
    let header = 8 + if halo_src.is_some() { 4 } else { 0 } + 4;
    let mut e = Enc { buf };
    e.u8(kind.tag());
    e.u32((header + 8 * count) as u32);
    e.u64(seq);
    if let Some(src) = halo_src {
        e.u32(src);
    }
    e.u32(count as u32);
    let words_at = buf.len();
    buf.resize(words_at + 8 * count, 0);
    WordsMut(&mut buf[words_at..])
}

/// The word area of a value frame under construction
/// ([`values_frame_mut`]).
pub struct WordsMut<'a>(&'a mut [u8]);

impl WordsMut<'_> {
    /// Writes word `i`.
    #[inline]
    pub fn set(&mut self, i: usize, word: u64) {
        self.0[8 * i..8 * i + 8].copy_from_slice(&word.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Plan frames without intermediate vectors: a local CSR kernel streamed
// from the sender's own data and sealed with its fingerprint as it goes.

/// Appends the envelope and header of a `plan` frame carrying a local
/// CSR kernel to `buf`, and returns the writer that streams the kernel
/// arrays after them. Write, in wire order, the `degrees` list, the
/// `slots` list, the recv group count, and each group's source and
/// position list; then [`PlanFrameMut::finish`] writes the factor and
/// the content fingerprint and patches the envelope length. The bytes
/// are exactly what [`Frame::encode`] writes for the [`PlanFrame`] whose
/// kernel [`LocalCsrPlan::new`] builds from the same arrays — without
/// materializing those arrays. A writer dropped unfinished leaves a
/// frame whose envelope declares an empty payload.
pub fn plan_frame_mut(
    buf: &mut Vec<u8>,
    seq: u64,
    shard: u32,
    load_type: LoadType,
    owned: u32,
) -> PlanFrameMut<'_> {
    let start = buf.len();
    let mut e = Enc { buf };
    e.u8(T_PLAN);
    e.u32(0);
    e.plan_header(seq, shard, load_type, owned);
    e.u8(1);
    PlanFrameMut {
        buf,
        start,
        hash: Fnv::new(),
    }
}

/// A plan frame under construction ([`plan_frame_mut`]): every `u32` it
/// writes is also folded into the content fingerprint.
pub struct PlanFrameMut<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
    hash: Fnv,
}

impl PlanFrameMut<'_> {
    /// Writes one `u32` of the kernel section: the recv group count or a
    /// group's source shard.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.hash.mix(v as u64);
    }

    /// Writes one `list<u32>`: `count`, then the words `words` yields.
    ///
    /// # Panics
    ///
    /// If `words` does not yield exactly `count` words.
    pub fn list(&mut self, count: usize, words: impl IntoIterator<Item = u32>) {
        self.u32(count as u32);
        self.buf.reserve(4 * count);
        let buf = &mut *self.buf;
        // Internal iteration: a caller's nested iterators (rows of slots)
        // run as nested loops, not one `next()` call per word.
        let (filled, hash) = words.into_iter().fold((0, self.hash.0), |(filled, h), w| {
            buf.extend_from_slice(&w.to_le_bytes());
            (filled + 1, Fnv::step(h, w as u64))
        });
        assert_eq!(
            filled, count,
            "plan list yielded a different number of words than its count"
        );
        self.hash.0 = hash;
    }

    /// Writes the divisor factor's bit pattern and the fingerprint, and
    /// closes the frame.
    pub fn finish(mut self, factor: u64) {
        self.hash.mix(factor);
        let mut e = Enc { buf: self.buf };
        e.u64(factor);
        e.u64(self.hash.0);
        let len = (self.buf.len() - self.start - 5) as u32;
        self.buf[self.start + 1..self.start + 5].copy_from_slice(&len.to_le_bytes());
    }
}

/// A value frame read into a [`FrameBuf`]: its kind, its seq and its
/// words, still in the read buffer until the receiver decodes them into
/// its own memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValuesFrame<'a> {
    /// Which value frame this is.
    pub kind: ValueKind,
    /// Plan seq the values belong to.
    pub seq: u64,
    bytes: &'a [u8],
}

impl<'a> ValuesFrame<'a> {
    /// Parses a value frame payload; `None` for other frame kinds.
    fn decode(kind: u8, payload: &'a [u8]) -> Result<Option<ValuesFrame<'a>>, WireError> {
        let mut d = Dec::new(payload, kind);
        let (kind, seq) = match kind {
            T_OWNED => (ValueKind::Owned, d.u64()?),
            T_HALO => {
                let seq = d.u64()?;
                (ValueKind::Halo { src: d.u32()? }, seq)
            }
            T_RESULTS => (ValueKind::Results, d.u64()?),
            _ => return Ok(None),
        };
        Ok(Some(ValuesFrame {
            kind,
            seq,
            bytes: d.word_bytes()?,
        }))
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.bytes.len() / 8
    }

    /// Whether the frame carries no words.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The words, in frame order.
    pub fn words(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
    }

    /// The owned [`Frame`] this view decodes to.
    pub fn to_frame(&self) -> Frame {
        let values = self.words().collect();
        match self.kind {
            ValueKind::Owned => Frame::OwnedValues {
                seq: self.seq,
                values,
            },
            ValueKind::Halo { src } => Frame::HaloBatch {
                seq: self.seq,
                src,
                values,
            },
            ValueKind::Results => Frame::Results {
                seq: self.seq,
                values,
            },
        }
    }
}

/// One frame read by [`FrameBuf::read`]: a value frame as a borrowed
/// view of the read buffer, any other frame decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameView<'a> {
    /// `owned-values`, `halo-batch` or `results`.
    Values(ValuesFrame<'a>),
    /// Every other frame.
    Other(Frame),
}

impl FrameView<'_> {
    /// Stable name of the frame kind, as [`Frame::kind_name`].
    pub fn kind_name(&self) -> &'static str {
        match self {
            FrameView::Values(v) => match v.kind {
                ValueKind::Owned => "owned-values",
                ValueKind::Halo { .. } => "halo-batch",
                ValueKind::Results => "results",
            },
            FrameView::Other(frame) => frame.kind_name(),
        }
    }

    /// The frame's type tag, as [`Frame::kind`].
    pub fn kind(&self) -> u8 {
        match self {
            FrameView::Values(v) => v.kind.tag(),
            FrameView::Other(frame) => frame.kind(),
        }
    }
}

/// A reusable read buffer: each [`FrameBuf::read`] reads one frame's
/// payload into the same allocation, so a steady stream of same-sized
/// value frames allocates nothing after the first.
#[derive(Debug, Default)]
pub struct FrameBuf {
    payload: Vec<u8>,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Reads one frame off `r`, with the envelope rules of
    /// [`read_frame`]: `Closed` before the envelope, `Truncated` inside
    /// it, `Oversized` before any allocation.
    pub fn read<R: Read>(&mut self, r: &mut R) -> Result<FrameView<'_>, WireError> {
        let mut head = [0u8; 5];
        let mut got = 0;
        while got < head.len() {
            match r.read(&mut head[got..]) {
                Ok(0) if got == 0 => return Err(WireError::Closed),
                Ok(0) => return Err(WireError::Truncated { frame: None }),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let kind = head[0];
        let len = u32::from_le_bytes(head[1..5].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized { len });
        }
        self.payload.clear();
        self.payload.resize(len as usize, 0);
        match r.read_exact(&mut self.payload) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(WireError::Truncated { frame: Some(kind) })
            }
            Err(e) => return Err(WireError::Io(e)),
        }
        match ValuesFrame::decode(kind, &self.payload)? {
            Some(values) => Ok(FrameView::Values(values)),
            None => Frame::decode(kind, &self.payload).map(FrameView::Other),
        }
    }
}

/// Reads one frame off a byte stream. A clean EOF *before* the envelope
/// is [`WireError::Closed`] (the peer went away between frames); an EOF
/// inside the envelope or payload is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    Ok(match FrameBuf::new().read(r)? {
        FrameView::Values(values) => values.to_frame(),
        FrameView::Other(frame) => frame,
    })
}

/// Writes the 16-byte worker handshake: magic, version, shard, reserved.
pub fn write_hello<W: Write>(w: &mut W, shard: u32) -> std::io::Result<()> {
    let mut buf = [0u8; 16];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    buf[8..12].copy_from_slice(&shard.to_le_bytes());
    w.write_all(&buf)
}

/// Reads and validates the worker handshake.
pub fn read_hello<R: Read>(r: &mut R) -> Result<Hello, WireError> {
    let mut buf = [0u8; 16];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { frame: None }
        } else {
            WireError::Io(e)
        }
    })?;
    if buf[0..4] != MAGIC {
        return Err(WireError::BadMagic {
            found: buf[0..4].try_into().unwrap(),
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            ours: WIRE_VERSION,
            theirs: version,
        });
    }
    Ok(Hello {
        version,
        shard: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
    })
}

/// Writes the 12-byte coordinator handshake reply: magic, version, ack.
pub fn write_hello_ack<W: Write>(w: &mut W) -> std::io::Result<()> {
    let mut buf = [0u8; 12];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..8].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    buf[8..12].copy_from_slice(&1u32.to_le_bytes());
    w.write_all(&buf)
}

/// Reads and validates the coordinator handshake reply.
pub fn read_hello_ack<R: Read>(r: &mut R) -> Result<HelloAck, WireError> {
    let mut buf = [0u8; 12];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { frame: None }
        } else {
            WireError::Io(e)
        }
    })?;
    if buf[0..4] != MAGIC {
        return Err(WireError::BadMagic {
            found: buf[0..4].try_into().unwrap(),
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch {
            ours: WIRE_VERSION,
            theirs: version,
        });
    }
    Ok(HelloAck { version })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_layout_is_type_len_payload() {
        let bytes = Frame::Done(DoneFrame {
            seq: 0x0102,
            ok: true,
        })
        .encode();
        assert_eq!(bytes[0], T_DONE);
        assert_eq!(u32::from_le_bytes(bytes[1..5].try_into().unwrap()), 9);
        assert_eq!(bytes.len(), 5 + 9);
        assert_eq!(&bytes[5..13], &0x0102u64.to_le_bytes());
        assert_eq!(bytes[13], 1);
    }

    #[test]
    fn trailing_payload_bytes_are_ignored() {
        // Additive forward compat: a future minor revision may append
        // fields; a decoder must accept the frame and read its own.
        let mut bytes = Frame::Done(DoneFrame { seq: 9, ok: true }).encode();
        bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        let len = (bytes.len() - 5) as u32;
        bytes[1..5].copy_from_slice(&len.to_le_bytes());
        match read_frame(&mut bytes.as_slice()).unwrap() {
            Frame::Done(d) => assert_eq!(d, DoneFrame { seq: 9, ok: true }),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_type_is_typed() {
        let bytes = [200u8, 0, 0, 0, 0];
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::UnknownFrame { kind: 200 }) => {}
            other => panic!("got {other:?}"),
        }
    }

    /// Tags 5, 6, 9 and 10 are assigned to no frame: each is an unknown
    /// frame, whatever its payload.
    #[test]
    fn unassigned_tags_are_unknown_frames() {
        for tag in [5u8, 6, 9, 10] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&8u32.to_le_bytes());
            bytes.extend_from_slice(&7u64.to_le_bytes());
            match read_frame(&mut bytes.as_slice()) {
                Err(WireError::UnknownFrame { kind }) => assert_eq!(kind, tag),
                other => panic!("tag {tag}: got {other:?}"),
            }
            match FrameBuf::new().read(&mut bytes.as_slice()) {
                Err(WireError::UnknownFrame { kind }) => assert_eq!(kind, tag),
                other => panic!("tag {tag}: got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = vec![T_DONE];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::Oversized { len }) => assert_eq!(len, u32::MAX),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn corrupt_list_count_is_truncated_not_alloc() {
        // A Results frame whose declared value count exceeds the payload:
        // the decoder must fail the bounds pre-check, not allocate.
        let mut buf = Vec::new();
        let mut e = Enc { buf: &mut buf };
        e.u8(T_RESULTS);
        e.u32(12);
        e.u64(1); // seq
        e.u32(u32::MAX); // declared count, no elements follow
        match read_frame(&mut buf.as_slice()) {
            Err(WireError::Truncated { frame: Some(k) }) => assert_eq!(k, T_RESULTS),
            other => panic!("got {other:?}"),
        }
        match FrameBuf::new().read(&mut buf.as_slice()) {
            Err(WireError::Truncated { frame: Some(k) }) => assert_eq!(k, T_RESULTS),
            other => panic!("got {other:?}"),
        }
    }

    #[test]
    fn frame_buf_rejects_oversized_lengths_before_allocation() {
        for tag in [T_OWNED, T_HALO, T_RESULTS, T_PLAN] {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
            let mut buf = FrameBuf::new();
            match buf.read(&mut bytes.as_slice()) {
                Err(WireError::Oversized { len }) => assert_eq!(len, MAX_FRAME_LEN + 1),
                other => panic!("got {other:?}"),
            }
            assert_eq!(buf.payload.capacity(), 0, "allocated before the check");
        }
    }

    #[test]
    fn direct_value_encoding_matches_frame_encode() {
        let words: Vec<u64> = (0..37u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for (kind, frame) in [
            (
                ValueKind::Owned,
                Frame::OwnedValues {
                    seq: 4,
                    values: words.clone(),
                },
            ),
            (
                ValueKind::Halo { src: 9 },
                Frame::HaloBatch {
                    seq: 4,
                    src: 9,
                    values: words.clone(),
                },
            ),
            (
                ValueKind::Results,
                Frame::Results {
                    seq: 4,
                    values: words.clone(),
                },
            ),
        ] {
            // Appends after whatever the buffer already holds.
            let mut buf = vec![0xEE];
            encode_values(&mut buf, kind, 4, words.iter().copied());
            assert_eq!(&buf[1..], &frame.encode()[..], "{kind:?}");

            let mut out_of_order = Vec::new();
            let mut area = values_frame_mut(&mut out_of_order, kind, 4, words.len());
            for i in (0..words.len()).rev() {
                area.set(i, words[i]);
            }
            assert_eq!(out_of_order, frame.encode(), "{kind:?}");

            let mut reader = FrameBuf::new();
            match reader.read(&mut &buf[1..]).unwrap() {
                FrameView::Values(v) => {
                    assert_eq!((v.kind, v.seq, v.len()), (kind, 4, words.len()));
                    assert!(v.words().eq(words.iter().copied()));
                    assert_eq!(v.to_frame(), frame);
                }
                other => panic!("got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_buf_reuses_its_allocation_across_frames() {
        let mut stream = Vec::new();
        encode_values(&mut stream, ValueKind::Owned, 1, [7u64; 64].into_iter());
        Frame::Done(DoneFrame { seq: 1, ok: true }).encode_into(&mut stream);
        encode_values(&mut stream, ValueKind::Results, 2, [8u64; 3].into_iter());
        let mut r = stream.as_slice();
        let mut buf = FrameBuf::new();
        assert!(matches!(buf.read(&mut r).unwrap(), FrameView::Values(v) if v.len() == 64));
        let cap = buf.payload.capacity();
        assert_eq!(
            buf.read(&mut r).unwrap(),
            FrameView::Other(Frame::Done(DoneFrame { seq: 1, ok: true }))
        );
        match buf.read(&mut r).unwrap() {
            FrameView::Values(v) => assert!(v.words().eq([8u64; 3])),
            other => panic!("got {other:?}"),
        }
        assert_eq!(buf.payload.capacity(), cap, "a smaller frame reallocated");
        assert!(matches!(buf.read(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn eof_between_and_inside_frames_are_distinct() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(WireError::Closed)));
        let bytes = Frame::Exit.encode();
        let cut = &bytes[..3];
        assert!(matches!(
            read_frame(&mut { cut }),
            Err(WireError::Truncated { frame: None })
        ));
    }

    /// Shard 0 of a 6-cycle split 0..3 | 3..6: owned rows 0, 1, 2 (nodes
    /// 0, 1, 2), halo positions 3 (node 3, shard 1) and 4 (node 5,
    /// shard 1).
    fn cycle_plan() -> LocalCsrPlan {
        LocalCsrPlan::new(
            vec![2; 5],
            vec![1, 4, 0, 2, 1, 3],
            vec![(1, vec![3, 4])],
            4.0f64.to_bits(),
        )
    }

    #[test]
    #[should_panic(expected = "different number of words")]
    fn streamed_plan_list_must_match_its_count() {
        let mut buf = Vec::new();
        plan_frame_mut(&mut buf, 1, 0, LoadType::I64, 0).list(3, [1, 2]);
    }

    #[test]
    fn local_plan_validation_names_each_defect() {
        assert_eq!(cycle_plan().validate(3), Ok(()));
        let resealed = |edit: &dyn Fn(&mut LocalCsrPlan)| {
            let mut p = cycle_plan();
            edit(&mut p);
            LocalCsrPlan::new(p.degrees, p.slots, p.recv_groups, p.factor)
        };
        let cases: [(LocalCsrPlan, u32, PlanDefect); 7] = [
            (
                cycle_plan(),
                6,
                PlanDefect::RowsBeyondFrame { owned: 6, local: 5 },
            ),
            (
                resealed(&|p| p.degrees[1] = 3),
                3,
                PlanDefect::DegreeSum {
                    degree_sum: 7,
                    slots: 6,
                },
            ),
            (
                resealed(&|p| p.slots[3] = 5),
                3,
                PlanDefect::SlotOutOfRange { slot: 5, local: 5 },
            ),
            (
                resealed(&|p| p.recv_groups[0].1[0] = 2),
                3,
                PlanDefect::RecvOutsideHalo { position: 2 },
            ),
            (
                resealed(&|p| p.recv_groups[0].1[1] = 9),
                3,
                PlanDefect::RecvOutsideHalo { position: 9 },
            ),
            (
                resealed(&|p| p.recv_groups[0].1[1] = 3),
                3,
                PlanDefect::HaloCoverage { position: 3 },
            ),
            (
                resealed(&|p| p.recv_groups[0].1.pop().map(drop).unwrap()),
                3,
                PlanDefect::HaloCoverage { position: 4 },
            ),
        ];
        for (plan, owned, defect) in cases {
            assert_eq!(plan.validate(owned), Err(defect));
        }
        let plan = |shard, owned, kernel| PlanFrame {
            seq: 1,
            shard,
            load_type: LoadType::F64,
            owned,
            kernel,
        };
        assert_eq!(plan(2, 3, Some(cycle_plan())).validate(2), Ok(()));
        assert_eq!(plan(2, 3, None).validate(2), Ok(()));
        assert_eq!(
            plan(1, 3, None).validate(2),
            Err(PlanDefect::WrongShard {
                ours: 2,
                addressed: 1
            })
        );
        assert_eq!(
            plan(2, u32::MAX, None).validate(2),
            Err(PlanDefect::RowsBeyondFrame {
                owned: u32::MAX,
                local: (MAX_FRAME_LEN / 8) as usize
            })
        );
        assert_eq!(
            plan(2, 4, Some(cycle_plan())).validate(2),
            Err(PlanDefect::DegreeSum {
                degree_sum: 8,
                slots: 6
            })
        );
        let mut flipped = cycle_plan();
        flipped.slots.swap(0, 1);
        assert!(matches!(
            flipped.validate(3),
            Err(PlanDefect::Fingerprint { expected, actual })
                if expected == cycle_plan().fingerprint && actual != expected
        ));
    }

    #[test]
    fn hello_round_trip_and_corruption() {
        let mut buf = Vec::new();
        write_hello(&mut buf, 42).unwrap();
        assert_eq!(buf.len(), 16);
        let hello = read_hello(&mut buf.as_slice()).unwrap();
        assert_eq!(
            hello,
            Hello {
                version: WIRE_VERSION,
                shard: 42
            }
        );

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_hello(&mut bad.as_slice()),
            Err(WireError::BadMagic { .. })
        ));

        let mut future = buf.clone();
        future[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            read_hello(&mut future.as_slice()),
            Err(WireError::VersionMismatch {
                ours: WIRE_VERSION,
                theirs: 9
            })
        ));

        // A dlb-wire/2 peer ships global edge lists in its plan frames;
        // it must be refused at the handshake, not misparsed.
        let mut skewed = buf.clone();
        skewed[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(matches!(
            read_hello(&mut skewed.as_slice()),
            Err(WireError::VersionMismatch { ours: 3, theirs: 2 })
        ));

        let mut ack = Vec::new();
        write_hello_ack(&mut ack).unwrap();
        assert_eq!(
            read_hello_ack(&mut ack.as_slice()).unwrap(),
            HelloAck {
                version: WIRE_VERSION
            }
        );
    }
}
