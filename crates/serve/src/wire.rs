//! Wire codecs: explicit, hand-rolled binary encode/decode for every domain
//! type the solve daemon ships over a socket.
//!
//! No serde, no reflection — each type states its own layout, in the spirit
//! of irdest's MREP encoding frames:
//!
//! * integers are **big-endian** (`u8`/`u16`/`u32`/`u64`);
//! * `bool` is one byte (`0`/`1`; anything else is malformed);
//! * `f64` travels as the big-endian bytes of [`f64::to_bits`], so values
//!   round-trip **bitwise** — the serving contract is that a streamed
//!   residual equals the in-process one to the last bit, and a lossy text
//!   float would break it;
//! * `Option<T>` is a one-byte presence marker followed by `T`;
//! * `String`/`Vec<T>` carry a `u32` length prefix;
//! * enums carry a leading `u8` variant tag (unknown tags are typed
//!   [`WireError::UnknownTag`] decode errors, never panics).
//!
//! Malformed input of any shape — truncated, oversized, wrong tag, non-UTF-8
//! — surfaces as a [`WireError`]; decoding never panics and never allocates
//! more than the input could actually contain.  Frame-level concerns
//! (version byte, frame-type tag, checksum) live one layer up in
//! [`crate::frame`].

use mffv_engine::Backend;
use mffv_gpu_ref::GpuSpec;
use mffv_mesh::workload::BoundarySpec;
use mffv_mesh::{
    CellField, CellIndex, Dims, DtPolicy, PermeabilityModel, TransientSpec, Well, WellControl,
    WellSet, WorkloadSpec,
};
use mffv_solver::backend::{
    DeviceSection, Precision, PreconditionerKind, SolveConfig, SolveReport,
};
use mffv_solver::convergence::ConvergenceHistory;
use mffv_solver::monitor::{SolveEvent, StopPolicy, StopReason};
use std::time::Duration;

/// Typed decode/transport failure.  Every malformed input maps onto one of
/// these variants; the wire layer has no panicking path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The frame's version byte is not one this peer speaks.
    BadVersion {
        /// Version byte received.
        got: u8,
        /// Version this peer implements.
        expected: u8,
    },
    /// An enum/frame tag byte outside the known set.
    UnknownTag {
        /// Which tagged type was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The frame checksum did not match its payload.
    ChecksumMismatch {
        /// Checksum recomputed over the received payload.
        expected: u32,
        /// Checksum carried by the frame.
        got: u32,
    },
    /// A declared length exceeds the protocol bound (or the bytes present).
    Oversized {
        /// Declared length.
        len: usize,
        /// Maximum this peer accepts.
        max: usize,
    },
    /// Decoding finished with unconsumed payload bytes left over.
    TrailingBytes {
        /// Bytes left unread.
        remaining: usize,
    },
    /// Structurally valid bytes with an invalid meaning (bad bool byte,
    /// non-UTF-8 string, field-count mismatch, …).
    Malformed(String),
    /// The underlying socket failed (read/write/connect).
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            WireError::BadVersion { got, expected } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this peer speaks {expected})"
                )
            }
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag {tag:#04x}")
            }
            WireError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: computed {expected:#010x}, frame carried {got:#010x}"
                )
            }
            WireError::Oversized { len, max } => {
                write!(f, "declared length {len} exceeds the {max}-byte bound")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete decode")
            }
            WireError::Malformed(detail) => write!(f, "malformed payload: {detail}"),
            WireError::Io(detail) => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Append-only big-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// `usize` as big-endian `u64` (lossless on every supported platform).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// One byte, `0`/`1`.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Bitwise `f64` via [`f64::to_bits`].
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// `u32` length prefix + UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Presence marker + value.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(value) => {
                self.put_bool(true);
                self.put_f64(value);
            }
            None => self.put_bool(false),
        }
    }

    /// Presence marker + value.
    pub fn put_opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(value) => {
                self.put_bool(true);
                self.put_usize(value);
            }
            None => self.put_bool(false),
        }
    }

    /// `u32` count prefix + bitwise values.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_u32(values.len() as u32);
        for &v in values {
            self.put_f64(v);
        }
    }
}

/// Cursor over received bytes; every read is bounds-checked and every
/// failure is a typed [`WireError`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u8,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, decoding at the current protocol version.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            version: crate::frame::WIRE_VERSION,
        }
    }

    /// A reader decoding at an explicit (older) protocol version.  Codecs
    /// consult [`ByteReader::version`] to skip fields the sender never wrote.
    pub fn with_version(buf: &'a [u8], version: u8) -> Self {
        Self {
            buf,
            pos: 0,
            version,
        }
    }

    /// The protocol version the bytes were encoded at.
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` bytes, or fail typed.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Fail with [`WireError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::TrailingBytes { remaining }),
        }
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Big-endian `u64` narrowed to `usize` (typed failure on overflow).
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed(format!("{v} does not fit in usize")))
    }

    /// Strict `0`/`1` byte.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other:#04x}"))),
        }
    }

    /// Bitwise `f64` via [`f64::from_bits`].
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// `u32`-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Malformed(format!("non-UTF-8 string: {e}")))
    }

    /// Presence marker + value.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        Ok(if self.bool()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    /// Presence marker + value.
    pub fn opt_usize(&mut self) -> Result<Option<usize>, WireError> {
        Ok(if self.bool()? {
            Some(self.usize()?)
        } else {
            None
        })
    }

    /// `u32`-prefixed bitwise `f64` values.  The count is validated against
    /// the bytes actually present before anything is allocated, so a forged
    /// length cannot drive an allocation the input does not pay for.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(8) > self.remaining() {
            return Err(WireError::Truncated {
                needed: count * 8,
                available: self.remaining(),
            });
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(self.f64()?);
        }
        Ok(values)
    }

    /// A collection count, validated against at least one byte per element.
    pub fn count(&mut self, context: &'static str) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count > self.remaining() {
            return Err(WireError::Malformed(format!(
                "{context} count {count} exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }
}

/// Types with an explicit wire layout.
pub trait WireEncode {
    /// Append this value's bytes to `w`.
    fn encode(&self, w: &mut ByteWriter);
}

/// Types decodable from their wire layout.
pub trait WireDecode: Sized {
    /// Read one value from `r`.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError>;
}

/// Encode a value to a fresh byte vector.
pub fn to_bytes<T: WireEncode>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode exactly one value from `bytes` (trailing bytes are an error).
pub fn from_bytes<T: WireDecode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Session vocabulary: StopReason, SolveEvent
// ---------------------------------------------------------------------------

impl WireEncode for StopReason {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            StopReason::Cancelled => 0,
            StopReason::DeadlineExpired => 1,
            StopReason::IterationBudget => 2,
            StopReason::Stagnated => 3,
            StopReason::Diverged => 4,
            StopReason::MonitorRequest => 5,
            // Tag 6 shipped with wire version 3; a version-2 peer that has
            // never seen a Breakdown stream decodes everything else as before.
            StopReason::Breakdown => 6,
        });
    }
}

impl WireDecode for StopReason {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(StopReason::Cancelled),
            1 => Ok(StopReason::DeadlineExpired),
            2 => Ok(StopReason::IterationBudget),
            3 => Ok(StopReason::Stagnated),
            4 => Ok(StopReason::Diverged),
            5 => Ok(StopReason::MonitorRequest),
            6 => Ok(StopReason::Breakdown),
            tag => Err(WireError::UnknownTag {
                context: "StopReason",
                tag,
            }),
        }
    }
}

impl WireEncode for SolveEvent {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            SolveEvent::Started { initial_rr } => {
                w.put_u8(0);
                w.put_f64(*initial_rr);
            }
            SolveEvent::Iteration { k, rr } => {
                w.put_u8(1);
                w.put_usize(*k);
                w.put_f64(*rr);
            }
            SolveEvent::Converged { iterations, rr } => {
                w.put_u8(2);
                w.put_usize(*iterations);
                w.put_f64(*rr);
            }
            SolveEvent::Stopped(reason) => {
                w.put_u8(3);
                reason.encode(w);
            }
        }
    }
}

impl WireDecode for SolveEvent {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SolveEvent::Started {
                initial_rr: r.f64()?,
            }),
            1 => Ok(SolveEvent::Iteration {
                k: r.usize()?,
                rr: r.f64()?,
            }),
            2 => Ok(SolveEvent::Converged {
                iterations: r.usize()?,
                rr: r.f64()?,
            }),
            3 => Ok(SolveEvent::Stopped(StopReason::decode(r)?)),
            tag => Err(WireError::UnknownTag {
                context: "SolveEvent",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Solve settings: Precision, SolveConfig
// ---------------------------------------------------------------------------

impl WireEncode for Precision {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            Precision::F32 => 0,
            Precision::F64 => 1,
        });
    }
}

impl WireDecode for Precision {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Precision::F32),
            1 => Ok(Precision::F64),
            tag => Err(WireError::UnknownTag {
                context: "Precision",
                tag,
            }),
        }
    }
}

impl WireEncode for PreconditionerKind {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            PreconditionerKind::None => 0,
            PreconditionerKind::Jacobi => 1,
            PreconditionerKind::Mg => 2,
        });
    }
}

impl WireDecode for PreconditionerKind {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(PreconditionerKind::None),
            1 => Ok(PreconditionerKind::Jacobi),
            2 => Ok(PreconditionerKind::Mg),
            tag => Err(WireError::UnknownTag {
                context: "PreconditionerKind",
                tag,
            }),
        }
    }
}

impl WireEncode for SolveConfig {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_opt_f64(self.tolerance);
        w.put_opt_usize(self.max_iterations);
        // The v3 layout has a precision byte here.  Precision belongs to the
        // backend, not the config, so the byte is a fixed `f64` tag that
        // decoders of every version accept.
        Precision::F64.encode(w);
        w.put_opt_usize(self.threads);
        // Version 2 appends the preconditioner selection.
        self.preconditioner.encode(w);
    }
}

impl WireDecode for SolveConfig {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let tolerance = r.opt_f64()?;
        let max_iterations = r.opt_usize()?;
        // The retired precision byte: still a typed error when it is no
        // `Precision` tag, otherwise ignored (the backend decides).
        Precision::decode(r)?;
        Ok(SolveConfig {
            tolerance,
            max_iterations,
            threads: r.opt_usize()?,
            // Version-1 senders never wrote the trailing preconditioner byte;
            // treat their configs as "no preconditioner" (the old behaviour).
            preconditioner: if r.version() >= 2 {
                PreconditionerKind::decode(r)?
            } else {
                PreconditionerKind::None
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Geometry and workload: Dims, CellIndex, PermeabilityModel, BoundarySpec,
// WorkloadSpec
// ---------------------------------------------------------------------------

impl WireEncode for Dims {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.nx);
        w.put_usize(self.ny);
        w.put_usize(self.nz);
    }
}

impl WireDecode for Dims {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Dims::new(r.usize()?, r.usize()?, r.usize()?))
    }
}

impl WireEncode for CellIndex {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.x);
        w.put_usize(self.y);
        w.put_usize(self.z);
    }
}

impl WireDecode for CellIndex {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(CellIndex::new(r.usize()?, r.usize()?, r.usize()?))
    }
}

impl WireEncode for PermeabilityModel {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            PermeabilityModel::Homogeneous { value } => {
                w.put_u8(0);
                w.put_f64(*value);
            }
            PermeabilityModel::Layered { layer_values } => {
                w.put_u8(1);
                w.put_f64_slice(layer_values);
            }
            PermeabilityModel::LogNormal {
                mean_log,
                std_log,
                seed,
            } => {
                w.put_u8(2);
                w.put_f64(*mean_log);
                w.put_f64(*std_log);
                w.put_u64(*seed);
            }
            PermeabilityModel::Channelized {
                background,
                channel,
                num_channels,
                half_width,
                amplitude,
                seed,
            } => {
                w.put_u8(3);
                w.put_f64(*background);
                w.put_f64(*channel);
                w.put_usize(*num_channels);
                w.put_f64(*half_width);
                w.put_f64(*amplitude);
                w.put_u64(*seed);
            }
        }
    }
}

impl WireDecode for PermeabilityModel {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(PermeabilityModel::Homogeneous { value: r.f64()? }),
            1 => Ok(PermeabilityModel::Layered {
                layer_values: r.f64_vec()?,
            }),
            2 => Ok(PermeabilityModel::LogNormal {
                mean_log: r.f64()?,
                std_log: r.f64()?,
                seed: r.u64()?,
            }),
            3 => Ok(PermeabilityModel::Channelized {
                background: r.f64()?,
                channel: r.f64()?,
                num_channels: r.usize()?,
                half_width: r.f64()?,
                amplitude: r.f64()?,
                seed: r.u64()?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "PermeabilityModel",
                tag,
            }),
        }
    }
}

impl WireEncode for BoundarySpec {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            BoundarySpec::SourceProducer {
                source_pressure,
                producer_pressure,
            } => {
                w.put_u8(0);
                w.put_f64(*source_pressure);
                w.put_f64(*producer_pressure);
            }
            BoundarySpec::XFaces {
                left_pressure,
                right_pressure,
            } => {
                w.put_u8(1);
                w.put_f64(*left_pressure);
                w.put_f64(*right_pressure);
            }
            BoundarySpec::None => w.put_u8(2),
        }
    }
}

impl WireDecode for BoundarySpec {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BoundarySpec::SourceProducer {
                source_pressure: r.f64()?,
                producer_pressure: r.f64()?,
            }),
            1 => Ok(BoundarySpec::XFaces {
                left_pressure: r.f64()?,
                right_pressure: r.f64()?,
            }),
            2 => Ok(BoundarySpec::None),
            tag => Err(WireError::UnknownTag {
                context: "BoundarySpec",
                tag,
            }),
        }
    }
}

impl WireEncode for WorkloadSpec {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        self.dims.encode(w);
        for s in self.spacing {
            w.put_f64(s);
        }
        self.permeability.encode(w);
        w.put_f64(self.viscosity);
        self.boundary.encode(w);
        w.put_f64(self.tolerance);
        w.put_usize(self.max_iterations);
    }
}

impl WireDecode for WorkloadSpec {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(WorkloadSpec {
            name: r.str()?,
            dims: Dims::decode(r)?,
            spacing: [r.f64()?, r.f64()?, r.f64()?],
            permeability: PermeabilityModel::decode(r)?,
            viscosity: r.f64()?,
            boundary: BoundarySpec::decode(r)?,
            tolerance: r.f64()?,
            max_iterations: r.usize()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Transients: WellControl, Well, WellSet, DtPolicy, TransientSpec
// ---------------------------------------------------------------------------

impl WireEncode for WellControl {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            WellControl::Rate { volumetric_rate } => {
                w.put_u8(0);
                w.put_f64(*volumetric_rate);
            }
            WellControl::Bhp {
                pressure,
                productivity_index,
            } => {
                w.put_u8(1);
                w.put_f64(*pressure);
                w.put_f64(*productivity_index);
            }
        }
    }
}

impl WireDecode for WellControl {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WellControl::Rate {
                volumetric_rate: r.f64()?,
            }),
            1 => Ok(WellControl::Bhp {
                pressure: r.f64()?,
                productivity_index: r.f64()?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "WellControl",
                tag,
            }),
        }
    }
}

impl WireEncode for Well {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        self.cell.encode(w);
        self.control.encode(w);
        w.put_f64(self.start_time);
        w.put_f64(self.end_time);
    }
}

impl WireDecode for Well {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(Well {
            name: r.str()?,
            cell: CellIndex::decode(r)?,
            control: WellControl::decode(r)?,
            start_time: r.f64()?,
            end_time: r.f64()?,
        })
    }
}

impl WireEncode for WellSet {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.wells().len() as u32);
        for well in self.wells() {
            well.encode(w);
        }
    }
}

impl WireDecode for WellSet {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let count = r.count("well")?;
        let mut wells = Vec::with_capacity(count);
        for _ in 0..count {
            wells.push(Well::decode(r)?);
        }
        Ok(WellSet::new(wells))
    }
}

impl WireEncode for DtPolicy {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            DtPolicy::Fixed { dt } => {
                w.put_u8(0);
                w.put_f64(*dt);
            }
            DtPolicy::Ramp {
                initial,
                growth,
                max,
            } => {
                w.put_u8(1);
                w.put_f64(*initial);
                w.put_f64(*growth);
                w.put_f64(*max);
            }
        }
    }
}

impl WireDecode for DtPolicy {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DtPolicy::Fixed { dt: r.f64()? }),
            1 => Ok(DtPolicy::Ramp {
                initial: r.f64()?,
                growth: r.f64()?,
                max: r.f64()?,
            }),
            tag => Err(WireError::UnknownTag {
                context: "DtPolicy",
                tag,
            }),
        }
    }
}

impl WireEncode for TransientSpec {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.total_time);
        self.dt.encode(w);
        w.put_f64(self.total_compressibility);
        self.wells.encode(w);
        w.put_opt_f64(self.initial_pressure);
        w.put_f64_slice(&self.snapshot_times);
        w.put_bool(self.warm_start);
    }
}

impl WireDecode for TransientSpec {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(TransientSpec {
            total_time: r.f64()?,
            dt: DtPolicy::decode(r)?,
            total_compressibility: r.f64()?,
            wells: WellSet::decode(r)?,
            initial_pressure: r.opt_f64()?,
            snapshot_times: r.f64_vec()?,
            warm_start: r.bool()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Results: ConvergenceHistory, CellField<f64>, DeviceSection, SolveReport
// ---------------------------------------------------------------------------

impl WireEncode for ConvergenceHistory {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64_slice(&self.residual_norms_squared);
        w.put_bool(self.converged);
        w.put_usize(self.iterations);
    }
}

impl WireDecode for ConvergenceHistory {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(ConvergenceHistory {
            residual_norms_squared: r.f64_vec()?,
            converged: r.bool()?,
            iterations: r.usize()?,
        })
    }
}

impl WireEncode for CellField<f64> {
    fn encode(&self, w: &mut ByteWriter) {
        self.dims().encode(w);
        w.put_f64_slice(self.as_slice());
    }
}

impl WireDecode for CellField<f64> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let dims = Dims::decode(r)?;
        let data = r.f64_vec()?;
        if data.len() != dims.num_cells() {
            return Err(WireError::Malformed(format!(
                "cell field carries {} values for a {} grid of {} cells",
                data.len(),
                dims,
                dims.num_cells()
            )));
        }
        Ok(CellField::from_vec(dims, data))
    }
}

impl WireEncode for DeviceSection {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.device);
        w.put_f64(self.modelled_time_seconds);
        w.put_u32(self.counters.len() as u32);
        for (name, value) in &self.counters {
            w.put_str(name);
            w.put_f64(*value);
        }
    }
}

impl WireDecode for DeviceSection {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let device = r.str()?;
        let modelled_time_seconds = r.f64()?;
        let count = r.count("device counter")?;
        let mut counters = Vec::with_capacity(count);
        for _ in 0..count {
            counters.push((r.str()?, r.f64()?));
        }
        Ok(DeviceSection {
            device,
            modelled_time_seconds,
            counters,
        })
    }
}

impl WireEncode for SolveReport {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.backend);
        self.pressure.encode(w);
        self.history.encode(w);
        w.put_f64(self.final_residual_max);
        w.put_f64(self.host_wall_seconds);
        match &self.device {
            Some(device) => {
                w.put_bool(true);
                device.encode(w);
            }
            None => w.put_bool(false),
        }
        match self.stopped {
            Some(reason) => {
                w.put_bool(true);
                reason.encode(w);
            }
            None => w.put_bool(false),
        }
    }
}

impl WireDecode for SolveReport {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(SolveReport {
            backend: r.str()?,
            pressure: CellField::decode(r)?,
            history: ConvergenceHistory::decode(r)?,
            final_residual_max: r.f64()?,
            host_wall_seconds: r.f64()?,
            device: if r.bool()? {
                Some(DeviceSection::decode(r)?)
            } else {
                None
            },
            stopped: if r.bool()? {
                Some(StopReason::decode(r)?)
            } else {
                None
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Jobs: BackendSel, WirePolicy, WireJobSpec
// ---------------------------------------------------------------------------

/// The backend catalog a client can request by tag.
///
/// [`Backend`] itself is not wire-encodable in full generality (custom GPU
/// specs carry `&'static str` names; dataflow options are an open set), so
/// the protocol restricts jobs to this standard catalog — the same set
/// [`Backend::standard_set`] exercises, plus the H100 GPU model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendSel {
    /// Host CG in `f64` (the §V-B oracle).
    HostF64,
    /// Host CG in `f32`.
    HostF32,
    /// Roofline GPU reference model, A100 spec.
    GpuRefA100,
    /// Roofline GPU reference model, H100 spec.
    GpuRefH100,
    /// The paper's dataflow (wafer-scale) backend.
    Dataflow,
}

impl BackendSel {
    /// Every catalog entry, in tag order.
    pub fn all() -> [BackendSel; 5] {
        [
            BackendSel::HostF64,
            BackendSel::HostF32,
            BackendSel::GpuRefA100,
            BackendSel::GpuRefH100,
            BackendSel::Dataflow,
        ]
    }

    /// The engine backend this selector names.
    pub fn to_backend(self) -> Backend {
        match self {
            BackendSel::HostF64 => Backend::host(),
            BackendSel::HostF32 => Backend::host_f32(),
            BackendSel::GpuRefA100 => Backend::gpu_ref(),
            BackendSel::GpuRefH100 => Backend::gpu_ref_on(GpuSpec::h100()),
            BackendSel::Dataflow => Backend::dataflow(),
        }
    }

    /// Stable CLI/spec-file name.
    pub fn name(self) -> &'static str {
        match self {
            BackendSel::HostF64 => "host",
            BackendSel::HostF32 => "host-f32",
            BackendSel::GpuRefA100 => "gpu-ref",
            BackendSel::GpuRefH100 => "gpu-ref-h100",
            BackendSel::Dataflow => "dataflow",
        }
    }

    /// Parse a CLI/spec-file name (the inverse of [`name`](Self::name),
    /// plus common aliases).
    pub fn parse(name: &str) -> Result<Self, WireError> {
        match name.trim() {
            "host" | "host-f64" => Ok(BackendSel::HostF64),
            "host-f32" => Ok(BackendSel::HostF32),
            "gpu-ref" | "gpu-ref-a100" => Ok(BackendSel::GpuRefA100),
            "gpu-ref-h100" => Ok(BackendSel::GpuRefH100),
            "dataflow" => Ok(BackendSel::Dataflow),
            other => Err(WireError::Malformed(format!(
                "unknown backend `{other}` (expected host, host-f32, gpu-ref, gpu-ref-h100 or dataflow)"
            ))),
        }
    }
}

impl WireEncode for BackendSel {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            BackendSel::HostF64 => 0,
            BackendSel::HostF32 => 1,
            BackendSel::GpuRefA100 => 2,
            BackendSel::GpuRefH100 => 3,
            BackendSel::Dataflow => 4,
        });
    }
}

impl WireDecode for BackendSel {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BackendSel::HostF64),
            1 => Ok(BackendSel::HostF32),
            2 => Ok(BackendSel::GpuRefA100),
            3 => Ok(BackendSel::GpuRefH100),
            4 => Ok(BackendSel::Dataflow),
            tag => Err(WireError::UnknownTag {
                context: "BackendSel",
                tag,
            }),
        }
    }
}

/// The declarative subset of a [`StopPolicy`] a client can request over the
/// wire.  Cancel tokens are inherently session-local (`Arc<AtomicBool>`);
/// the server arms one per accepted job and trips it on a `Cancel` frame,
/// so they never appear in the wire form.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WirePolicy {
    /// Stop after this many iterations ([`StopReason::IterationBudget`]).
    pub iteration_budget: Option<usize>,
    /// Wall-clock deadline in seconds ([`StopReason::DeadlineExpired`]).
    /// The server clamps this to its own per-session maximum.
    pub deadline_seconds: Option<f64>,
    /// `(window, min_rel_improvement)` stagnation rule.
    pub stagnation: Option<(usize, f64)>,
    /// Divergence factor ([`StopReason::Diverged`]).
    pub divergence_factor: Option<f64>,
}

impl WirePolicy {
    /// Whether no rule is requested.
    pub fn is_empty(&self) -> bool {
        self.iteration_budget.is_none()
            && self.deadline_seconds.is_none()
            && self.stagnation.is_none()
            && self.divergence_factor.is_none()
    }

    /// Build the solver-side policy, clamping the requested deadline to
    /// `max_deadline` (the server's per-session ceiling; `None` = no cap).
    /// A server with a ceiling applies it even when the client asked for no
    /// deadline at all.
    pub fn to_stop_policy(&self, max_deadline: Option<f64>) -> StopPolicy {
        let mut policy = StopPolicy::new();
        if let Some(budget) = self.iteration_budget {
            policy = policy.iteration_budget(budget);
        }
        let deadline = match (self.deadline_seconds, max_deadline) {
            (Some(requested), Some(ceiling)) => Some(requested.min(ceiling)),
            (Some(requested), None) => Some(requested),
            (None, Some(ceiling)) => Some(ceiling),
            (None, None) => None,
        };
        if let Some(seconds) = deadline {
            policy = policy.deadline(Duration::from_secs_f64(seconds.max(0.0)));
        }
        if let Some((window, min_rel)) = self.stagnation {
            policy = policy.stagnation(window, min_rel);
        }
        if let Some(factor) = self.divergence_factor {
            policy = policy.divergence(factor);
        }
        policy
    }
}

impl WireEncode for WirePolicy {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_opt_usize(self.iteration_budget);
        w.put_opt_f64(self.deadline_seconds);
        match self.stagnation {
            Some((window, min_rel)) => {
                w.put_bool(true);
                w.put_usize(window);
                w.put_f64(min_rel);
            }
            None => w.put_bool(false),
        }
        w.put_opt_f64(self.divergence_factor);
    }
}

impl WireDecode for WirePolicy {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(WirePolicy {
            iteration_budget: r.opt_usize()?,
            deadline_seconds: r.opt_f64()?,
            stagnation: if r.bool()? {
                Some((r.usize()?, r.f64()?))
            } else {
                None
            },
            divergence_factor: r.opt_f64()?,
        })
    }
}

/// The wire form of an engine [`JobSpec`](mffv_engine::JobSpec): everything
/// declarative about one solve — workload, backend selector, settings, seed,
/// stop rules, optional transient schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct WireJobSpec {
    /// The problem to solve.
    pub workload: WorkloadSpec,
    /// Catalog backend to run it on.
    pub backend: BackendSel,
    /// Cross-backend solve settings.
    pub config: SolveConfig,
    /// Optional permeability seed override.
    pub seed: Option<u64>,
    /// Declarative stop rules (the server adds its cancel token).
    pub policy: WirePolicy,
    /// When set, run the transient schedule instead of one steady solve.
    pub transient: Option<TransientSpec>,
}

impl WireJobSpec {
    /// A steady job with default settings.
    pub fn new(workload: WorkloadSpec, backend: BackendSel) -> Self {
        Self {
            workload,
            backend,
            config: SolveConfig::default(),
            seed: None,
            policy: WirePolicy::default(),
            transient: None,
        }
    }

    /// The engine job this spec describes.  `max_deadline` is the server's
    /// per-session deadline ceiling (see [`WirePolicy::to_stop_policy`]);
    /// session-local cancel tokens are attached by the caller afterwards via
    /// [`mffv_engine::JobSpec::with_stop_policy`]'s composition.
    pub fn to_job_spec(&self, max_deadline: Option<f64>) -> mffv_engine::JobSpec {
        let mut job = mffv_engine::JobSpec::new(self.workload.clone(), self.backend.to_backend())
            .with_config(self.config)
            .with_stop_policy(self.policy.to_stop_policy(max_deadline));
        if let Some(seed) = self.seed {
            job = job.with_seed(seed);
        }
        if let Some(transient) = &self.transient {
            job = job.with_transient(transient.clone());
        }
        job
    }
}

impl WireEncode for WireJobSpec {
    fn encode(&self, w: &mut ByteWriter) {
        self.workload.encode(w);
        self.backend.encode(w);
        self.config.encode(w);
        match self.seed {
            Some(seed) => {
                w.put_bool(true);
                w.put_u64(seed);
            }
            None => w.put_bool(false),
        }
        self.policy.encode(w);
        match &self.transient {
            Some(transient) => {
                w.put_bool(true);
                transient.encode(w);
            }
            None => w.put_bool(false),
        }
    }
}

impl WireDecode for WireJobSpec {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(WireJobSpec {
            workload: WorkloadSpec::decode(r)?,
            backend: BackendSel::decode(r)?,
            config: SolveConfig::decode(r)?,
            seed: if r.bool()? { Some(r.u64()?) } else { None },
            policy: WirePolicy::decode(r)?,
            transient: if r.bool()? {
                Some(TransientSpec::decode(r)?)
            } else {
                None
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bytes<T: WireEncode + WireDecode>(value: &T) -> Vec<u8> {
        let bytes = to_bytes(value);
        let decoded: T = from_bytes(&bytes).expect("decode");
        let re_encoded = to_bytes(&decoded);
        assert_eq!(bytes, re_encoded, "encode∘decode is not byte-stable");
        bytes
    }

    #[test]
    fn primitives_roundtrip_bitwise() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_bool(true);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("grüße");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "grüße");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn malformed_primitives_are_typed_errors() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.bool(), Err(WireError::Malformed(_))));
        let mut r = ByteReader::new(&[0, 0]);
        assert!(matches!(r.u32(), Err(WireError::Truncated { .. })));
        // A string length promising more than the buffer holds.
        let mut w = ByteWriter::new();
        w.put_u32(100);
        w.put_u8(b'x');
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::Truncated { .. })));
        // Non-UTF-8 string bytes.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn forged_f64_count_cannot_drive_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.f64_vec(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn domain_types_roundtrip_byte_stable() {
        roundtrip_bytes(&StopReason::Stagnated);
        roundtrip_bytes(&StopReason::Breakdown);
        roundtrip_bytes(&SolveEvent::Iteration { k: 17, rr: 1e-12 });
        roundtrip_bytes(&SolveEvent::Stopped(StopReason::Breakdown));
        roundtrip_bytes(&SolveConfig {
            tolerance: Some(3e-11),
            max_iterations: None,
            threads: Some(4),
            preconditioner: PreconditionerKind::Mg,
        });
        for kind in PreconditionerKind::ALL {
            roundtrip_bytes(&kind);
        }
        roundtrip_bytes(&WorkloadSpec::quickstart());
        roundtrip_bytes(&WorkloadSpec::fig5(Dims::new(12, 12, 4)));
        roundtrip_bytes(
            &TransientSpec::new(30.0, 1.5, 1e-9)
                .with_wells(WellSet::empty().with(Well::rate("inj", CellIndex::new(2, 3, 1), 0.25)))
                .with_initial_pressure(1e7),
        );
        roundtrip_bytes(&WirePolicy {
            iteration_budget: Some(500),
            deadline_seconds: Some(2.5),
            stagnation: Some((25, 1e-3)),
            divergence_factor: Some(1e6),
        });
        for backend in BackendSel::all() {
            roundtrip_bytes(&backend);
            assert_eq!(BackendSel::parse(backend.name()).unwrap(), backend);
        }
    }

    #[test]
    fn solve_config_keeps_its_version_3_byte_layout() {
        #[rustfmt::skip]
        let pinned: [u8; 21] = [
            1, 0x3F, 0xE0, 0, 0, 0, 0, 0, 0, // tolerance: Some(0.5)
            1, 0, 0, 0, 0, 0, 0, 0, 200,     // max_iterations: Some(200)
            1,                               // precision: the f64 tag
            0,                               // threads: None
            2,                               // preconditioner: Mg
        ];
        let config = SolveConfig {
            tolerance: Some(0.5),
            max_iterations: Some(200),
            threads: None,
            preconditioner: PreconditionerKind::Mg,
        };
        assert_eq!(to_bytes(&config), pinned);
        assert_eq!(to_bytes(&SolveConfig::default()), [0, 0, 1, 0, 0]);
        // A peer that still sends the f32 tag decodes to the same config;
        // a byte that is no precision tag stays a typed error.
        let mut f32_tag = pinned;
        f32_tag[18] = 0;
        assert_eq!(from_bytes::<SolveConfig>(&f32_tag).unwrap(), config);
        let mut bad_tag = pinned;
        bad_tag[18] = 2;
        assert!(matches!(
            from_bytes::<SolveConfig>(&bad_tag),
            Err(WireError::UnknownTag {
                context: "Precision",
                tag: 2
            })
        ));
    }

    #[test]
    fn version_one_solve_config_decodes_without_the_preconditioner_byte() {
        let config = SolveConfig {
            tolerance: Some(1e-9),
            max_iterations: Some(200),
            threads: None,
            preconditioner: PreconditionerKind::Mg,
        };
        let bytes = to_bytes(&config);
        // A version-1 sender stops before the trailing preconditioner byte.
        let v1_bytes = &bytes[..bytes.len() - 1];
        let mut r = ByteReader::with_version(v1_bytes, 1);
        let decoded = SolveConfig::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.preconditioner, PreconditionerKind::None);
        assert_eq!(decoded.tolerance, config.tolerance);
        assert_eq!(decoded.max_iterations, config.max_iterations);
        // The same truncated bytes at the current version are a typed error,
        // not a silent default.
        let mut strict = ByteReader::new(v1_bytes);
        assert!(matches!(
            SolveConfig::decode(&mut strict),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn solve_report_roundtrips_bitwise_including_the_pressure_field() {
        let report = mffv_engine::JobSpec::new(
            WorkloadSpec::quickstart().scaled(2),
            BackendSel::Dataflow.to_backend(),
        )
        .execute(&mut mffv_solver::backend::SolveRequest::new())
        .unwrap();
        let bytes = roundtrip_bytes(&report);
        let decoded: SolveReport = from_bytes(&bytes).unwrap();
        let bits = |r: &SolveReport| -> Vec<u64> {
            r.pressure.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&report), bits(&decoded));
        assert_eq!(
            report.history.residual_norms_squared,
            decoded.history.residual_norms_squared
        );
        assert!(decoded.device.is_some(), "device section survives");
    }

    #[test]
    fn wire_job_spec_builds_the_equivalent_engine_job() {
        let wire_job = WireJobSpec {
            seed: Some(7),
            policy: WirePolicy {
                iteration_budget: Some(100),
                ..WirePolicy::default()
            },
            ..WireJobSpec::new(WorkloadSpec::quickstart(), BackendSel::HostF32)
        };
        let job = wire_job.to_job_spec(Some(30.0));
        assert_eq!(job.backend.name(), "host-f32");
        assert_eq!(job.seed, Some(7));
        assert!(!job.stop_policy.is_empty());
        assert!(job.transient.is_none());
    }

    #[test]
    fn cell_field_length_mismatch_is_malformed() {
        let mut w = ByteWriter::new();
        Dims::new(2, 2, 2).encode(&mut w);
        w.put_f64_slice(&[1.0, 2.0, 3.0]); // 3 values for an 8-cell grid
        let err = from_bytes::<CellField<f64>>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
    }
}
