//! Framing: the unit of exchange between daemon and client.
//!
//! Every frame travels as
//!
//! ```text
//! [u32 BE payload-len][payload]
//! payload = [u8 version][u8 frame-tag][body…][u32 BE FNV-1a checksum]
//! ```
//!
//! where the checksum covers `version + tag + body`.  The length prefix is
//! bounded by [`MAX_FRAME_LEN`]; a header announcing more is rejected before
//! any allocation, so a hostile peer cannot make the daemon reserve memory
//! it never sends.  The version byte is checked before the tag, so a future
//! protocol revision can change everything after it.

use crate::wire::{ByteReader, ByteWriter, WireDecode, WireEncode, WireError, WireJobSpec};
use mffv_solver::backend::SolveReport;
use mffv_solver::monitor::{SolveEvent, StopReason};
use std::io::{Read, Write};

/// The protocol revision this build speaks.  Version 2 added the trailing
/// preconditioner byte to `SolveConfig`; version-1 frames still decode, with
/// the preconditioner defaulting to `None`.  Version 3 added the
/// `StopReason::Breakdown` tag (a solver-side numerical breakdown now ends
/// its event stream with a terminal `Stopped` instead of silence); frames
/// that never carry that tag are byte-identical to version 2.
pub const WIRE_VERSION: u8 = 3;

/// The oldest protocol revision this build still decodes.
pub const MIN_WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's payload (64 MiB).  Large enough for the
/// pressure field of any workload this daemon serves, small enough that a
/// forged length prefix cannot drive an absurd allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// How the daemon should wind down when asked to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireShutdownMode {
    /// Refuse new work, finish everything already queued.
    Drain,
    /// Refuse new work and cancel queued/running jobs at the next
    /// iteration boundary.
    Abort,
}

/// One protocol message.  Client→server frames: `Hello`, `Submit`, `Cancel`,
/// `Ping`, `Shutdown`, `Goodbye`.  Server→client frames: `Welcome`,
/// `Accepted`, `Busy`, `Rejected`, `Event`, `Done`, `Stopped`, `JobFailed`,
/// `Pong`, `ShuttingDown`.
#[derive(Debug)]
pub enum Frame {
    /// Client introduction; `client` is a free-form display name.
    Hello {
        /// Display name the client announces.
        client: String,
    },
    /// Server response to `Hello`: the session id assigned to this
    /// connection and the daemon's banner.
    Welcome {
        /// Session id (unique per connection for the daemon's lifetime).
        session: u64,
        /// Human-readable daemon banner.
        banner: String,
    },
    /// Submit one solve job.
    Submit {
        /// Client-chosen correlation id, echoed in every reply about this job.
        job_id: u64,
        /// The job itself (boxed: a spec dwarfs every other variant).
        spec: Box<WireJobSpec>,
    },
    /// The job was admitted to the engine queue.
    Accepted {
        /// Echo of the `Submit` correlation id.
        job_id: u64,
    },
    /// Typed back-pressure: the session's admission window is full.  The
    /// client may resubmit once an outstanding job finishes.
    Busy {
        /// Echo of the `Submit` correlation id.
        job_id: u64,
        /// The session window's occupancy at refusal time.
        depth: usize,
        /// The session window's size
        /// ([`ServeConfig::session_window`](crate::ServeConfig::session_window)).
        capacity: usize,
    },
    /// The job was refused outright (invalid spec, daemon shutting down).
    Rejected {
        /// Echo of the `Submit` correlation id.
        job_id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Cancel one in-flight job; takes effect at the next iteration
    /// boundary of that solve only.
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// One streamed solve event.  `seq` increases by one per event within a
    /// job, so the client can assert it missed nothing.
    Event {
        /// The job this event belongs to.
        job_id: u64,
        /// Per-job event sequence number, starting at 0.
        seq: u64,
        /// The event, bitwise as the solver emitted it.
        event: SolveEvent,
    },
    /// Terminal: the solve converged; full report attached.
    Done {
        /// The finished job.
        job_id: u64,
        /// The complete report, pressure field included.
        report: Box<SolveReport>,
    },
    /// Terminal: the solve stopped early (cancelled, deadline, budget, …).
    Stopped {
        /// The stopped job.
        job_id: u64,
        /// Why it stopped.
        reason: StopReason,
        /// Partial report when the solver produced one.
        report: Option<Box<SolveReport>>,
    },
    /// Terminal: the solve failed (or panicked) server-side.
    JobFailed {
        /// The failed job.
        job_id: u64,
        /// Error description.
        error: String,
    },
    /// Liveness probe.
    Ping {
        /// Opaque token echoed back in `Pong`.
        token: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echo of the `Ping` token.
        token: u64,
    },
    /// Ask the daemon to wind down.
    Shutdown {
        /// Drain or abort.
        mode: WireShutdownMode,
    },
    /// The daemon is winding down; no further `Submit` will be accepted.
    ShuttingDown,
    /// Orderly end of session (either side may send it).
    Goodbye,
}

impl Frame {
    /// The frame-type tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Welcome { .. } => 0x02,
            Frame::Submit { .. } => 0x03,
            Frame::Accepted { .. } => 0x04,
            Frame::Busy { .. } => 0x05,
            Frame::Rejected { .. } => 0x06,
            Frame::Cancel { .. } => 0x07,
            Frame::Event { .. } => 0x08,
            Frame::Done { .. } => 0x09,
            Frame::Stopped { .. } => 0x0A,
            Frame::JobFailed { .. } => 0x0B,
            Frame::Ping { .. } => 0x0C,
            Frame::Pong { .. } => 0x0D,
            Frame::Shutdown { .. } => 0x0E,
            Frame::ShuttingDown => 0x0F,
            Frame::Goodbye => 0x10,
        }
    }

    /// Short frame name for traces and errors.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Welcome { .. } => "Welcome",
            Frame::Submit { .. } => "Submit",
            Frame::Accepted { .. } => "Accepted",
            Frame::Busy { .. } => "Busy",
            Frame::Rejected { .. } => "Rejected",
            Frame::Cancel { .. } => "Cancel",
            Frame::Event { .. } => "Event",
            Frame::Done { .. } => "Done",
            Frame::Stopped { .. } => "Stopped",
            Frame::JobFailed { .. } => "JobFailed",
            Frame::Ping { .. } => "Ping",
            Frame::Pong { .. } => "Pong",
            Frame::Shutdown { .. } => "Shutdown",
            Frame::ShuttingDown => "ShuttingDown",
            Frame::Goodbye => "Goodbye",
        }
    }

    fn encode_body(&self, w: &mut ByteWriter) {
        match self {
            Frame::Hello { client } => w.put_str(client),
            Frame::Welcome { session, banner } => {
                w.put_u64(*session);
                w.put_str(banner);
            }
            Frame::Submit { job_id, spec } => {
                w.put_u64(*job_id);
                spec.encode(w);
            }
            Frame::Accepted { job_id } => w.put_u64(*job_id),
            Frame::Busy {
                job_id,
                depth,
                capacity,
            } => {
                w.put_u64(*job_id);
                w.put_usize(*depth);
                w.put_usize(*capacity);
            }
            Frame::Rejected { job_id, reason } => {
                w.put_u64(*job_id);
                w.put_str(reason);
            }
            Frame::Cancel { job_id } => w.put_u64(*job_id),
            Frame::Event { job_id, seq, event } => {
                w.put_u64(*job_id);
                w.put_u64(*seq);
                event.encode(w);
            }
            Frame::Done { job_id, report } => {
                w.put_u64(*job_id);
                report.encode(w);
            }
            Frame::Stopped {
                job_id,
                reason,
                report,
            } => {
                w.put_u64(*job_id);
                reason.encode(w);
                match report {
                    Some(report) => {
                        w.put_bool(true);
                        report.encode(w);
                    }
                    None => w.put_bool(false),
                }
            }
            Frame::JobFailed { job_id, error } => {
                w.put_u64(*job_id);
                w.put_str(error);
            }
            Frame::Ping { token } => w.put_u64(*token),
            Frame::Pong { token } => w.put_u64(*token),
            Frame::Shutdown { mode } => w.put_u8(match mode {
                WireShutdownMode::Drain => 0,
                WireShutdownMode::Abort => 1,
            }),
            Frame::ShuttingDown => {}
            Frame::Goodbye => {}
        }
    }

    fn decode_body(tag: u8, r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            0x01 => Frame::Hello { client: r.str()? },
            0x02 => Frame::Welcome {
                session: r.u64()?,
                banner: r.str()?,
            },
            0x03 => Frame::Submit {
                job_id: r.u64()?,
                spec: Box::new(WireJobSpec::decode(r)?),
            },
            0x04 => Frame::Accepted { job_id: r.u64()? },
            0x05 => Frame::Busy {
                job_id: r.u64()?,
                depth: r.usize()?,
                capacity: r.usize()?,
            },
            0x06 => Frame::Rejected {
                job_id: r.u64()?,
                reason: r.str()?,
            },
            0x07 => Frame::Cancel { job_id: r.u64()? },
            0x08 => Frame::Event {
                job_id: r.u64()?,
                seq: r.u64()?,
                event: SolveEvent::decode(r)?,
            },
            0x09 => Frame::Done {
                job_id: r.u64()?,
                report: Box::new(SolveReport::decode(r)?),
            },
            0x0A => Frame::Stopped {
                job_id: r.u64()?,
                reason: StopReason::decode(r)?,
                report: if r.bool()? {
                    Some(Box::new(SolveReport::decode(r)?))
                } else {
                    None
                },
            },
            0x0B => Frame::JobFailed {
                job_id: r.u64()?,
                error: r.str()?,
            },
            0x0C => Frame::Ping { token: r.u64()? },
            0x0D => Frame::Pong { token: r.u64()? },
            0x0E => Frame::Shutdown {
                mode: match r.u8()? {
                    0 => WireShutdownMode::Drain,
                    1 => WireShutdownMode::Abort,
                    tag => {
                        return Err(WireError::UnknownTag {
                            context: "WireShutdownMode",
                            tag,
                        })
                    }
                },
            },
            0x0F => Frame::ShuttingDown,
            0x10 => Frame::Goodbye,
            tag => {
                return Err(WireError::UnknownTag {
                    context: "Frame",
                    tag,
                })
            }
        })
    }

    /// Encode to a complete on-wire frame: length prefix + versioned,
    /// checksummed payload.
    pub fn to_wire_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        payload.put_u8(WIRE_VERSION);
        payload.put_u8(self.tag());
        self.encode_body(&mut payload);
        let payload = payload.into_bytes();
        let checksum = fnv1a32(&payload);
        let mut wire = ByteWriter::new();
        wire.put_u32((payload.len() + 4) as u32);
        let mut bytes = wire.into_bytes();
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&checksum.to_be_bytes());
        bytes
    }

    /// Decode one frame from a length-stripped payload (version byte through
    /// checksum).  Verifies version, checksum and full consumption.
    pub fn from_payload(payload: &[u8]) -> Result<Self, WireError> {
        if payload.len() < 6 {
            // version + tag + checksum is the minimum possible frame
            return Err(WireError::Truncated {
                needed: 6,
                available: payload.len(),
            });
        }
        let (content, checksum_bytes) = payload.split_at(payload.len() - 4);
        let got = u32::from_be_bytes([
            checksum_bytes[0],
            checksum_bytes[1],
            checksum_bytes[2],
            checksum_bytes[3],
        ]);
        let expected = fnv1a32(content);
        if expected != got {
            return Err(WireError::ChecksumMismatch { expected, got });
        }
        let version = content[0];
        if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
            return Err(WireError::BadVersion {
                got: version,
                expected: WIRE_VERSION,
            });
        }
        // The reader carries the sender's version so codecs can skip fields
        // that revision never wrote.
        let mut r = ByteReader::with_version(&content[1..], version);
        let tag = r.u8()?;
        let frame = Frame::decode_body(tag, &mut r)?;
        r.finish()?;
        Ok(frame)
    }

    /// Decode one frame from complete wire bytes (length prefix included).
    pub fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 4 {
            return Err(WireError::Truncated {
                needed: 4,
                available: bytes.len(),
            });
        }
        let len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let rest = &bytes[4..];
        if rest.len() < len {
            return Err(WireError::Truncated {
                needed: len,
                available: rest.len(),
            });
        }
        if rest.len() > len {
            return Err(WireError::TrailingBytes {
                remaining: rest.len() - len,
            });
        }
        Frame::from_payload(rest)
    }

    /// Write this frame to a stream (one `write_all` of the whole frame).
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), WireError> {
        let bytes = self.to_wire_bytes();
        writer.write_all(&bytes)?;
        writer.flush()?;
        Ok(())
    }

    /// Read exactly one frame from a stream.  Returns `Ok(None)` on a clean
    /// EOF at a frame boundary; EOF mid-frame is [`WireError::Truncated`].
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Option<Self>, WireError> {
        let mut len_bytes = [0u8; 4];
        match read_exact_or_eof(reader, &mut len_bytes)? {
            ReadOutcome::Eof => return Ok(None),
            ReadOutcome::Filled => {}
        }
        let len = u32::from_be_bytes(len_bytes) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated {
                    needed: len,
                    available: 0,
                }
            } else {
                WireError::Io(e.to_string())
            }
        })?;
        Frame::from_payload(&payload).map(Some)
    }
}

enum ReadOutcome {
    Filled,
    Eof,
}

/// `read_exact`, except a clean EOF before the first byte is `Eof` rather
/// than an error (EOF after at least one byte is still truncation).
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ReadOutcome::Eof),
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed: buf.len(),
                    available: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(ReadOutcome::Filled)
}

/// FNV-1a 32-bit hash — the frame checksum.  Not cryptographic; it guards
/// against truncation, bit rot and desynchronised framing, which is the
/// protocol's threat model on a trusted link.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811C_9DC5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BackendSel;
    use mffv_mesh::WorkloadSpec;

    #[test]
    fn frames_roundtrip_through_wire_bytes() {
        let frames = [
            Frame::Hello {
                client: "cli".into(),
            },
            Frame::Welcome {
                session: 3,
                banner: "mffv-serve".into(),
            },
            Frame::Submit {
                job_id: 42,
                spec: Box::new(WireJobSpec::new(
                    WorkloadSpec::quickstart(),
                    BackendSel::HostF64,
                )),
            },
            Frame::Busy {
                job_id: 42,
                depth: 8,
                capacity: 8,
            },
            Frame::Stopped {
                job_id: 42,
                reason: StopReason::Cancelled,
                report: None,
            },
            Frame::Shutdown {
                mode: WireShutdownMode::Abort,
            },
            Frame::Goodbye,
        ];
        for frame in frames {
            let bytes = frame.to_wire_bytes();
            let decoded = Frame::from_wire_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{} failed to decode: {e}", frame.name()));
            assert_eq!(decoded.tag(), frame.tag());
            assert_eq!(
                decoded.to_wire_bytes(),
                bytes,
                "{} not byte-stable",
                frame.name()
            );
        }
    }

    #[test]
    fn corrupt_and_truncated_frames_are_typed_errors() {
        let bytes = Frame::Ping { token: 9 }.to_wire_bytes();
        // Flip one payload byte → checksum mismatch.
        let mut corrupt = bytes.clone();
        corrupt[6] ^= 0x40;
        assert!(matches!(
            Frame::from_wire_bytes(&corrupt),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Truncate → typed truncation.
        assert!(matches!(
            Frame::from_wire_bytes(&bytes[..bytes.len() - 3]),
            Err(WireError::Truncated { .. })
        ));
        // Oversized header → rejected before allocation.
        let mut oversized = vec![0xFF, 0xFF, 0xFF, 0xFF];
        oversized.extend_from_slice(&bytes[4..]);
        assert!(matches!(
            Frame::from_wire_bytes(&oversized),
            Err(WireError::Oversized { .. })
        ));
        // Wrong version → BadVersion.
        let mut wrong_version = bytes.clone();
        wrong_version[4] = WIRE_VERSION + 1;
        let payload_len = wrong_version.len() - 8;
        let checksum = fnv1a32(&wrong_version[4..4 + payload_len]);
        let n = wrong_version.len();
        wrong_version[n - 4..].copy_from_slice(&checksum.to_be_bytes());
        assert!(matches!(
            Frame::from_wire_bytes(&wrong_version),
            Err(WireError::BadVersion { .. })
        ));
    }

    #[test]
    fn version_one_submit_frames_still_decode() {
        use crate::wire::WirePolicy;
        use mffv_solver::backend::{Precision, PreconditionerKind};

        // Hand-craft the body a version-1 client would send: identical to
        // today's layout except `SolveConfig` stops before the trailing
        // preconditioner byte (which version 2 introduced).
        let mut body = ByteWriter::new();
        body.put_u64(42); // job_id
        WorkloadSpec::quickstart().encode(&mut body);
        BackendSel::HostF64.encode(&mut body);
        body.put_bool(false); // tolerance: None
        body.put_bool(false); // max_iterations: None
        Precision::F64.encode(&mut body);
        body.put_bool(false); // threads: None
        body.put_bool(false); // seed: None
        WirePolicy::default().encode(&mut body);
        body.put_bool(false); // transient: None
        let body = body.into_bytes();

        let mut payload = vec![1u8, 0x03]; // version 1, Submit tag
        payload.extend_from_slice(&body);
        let checksum = fnv1a32(&payload);
        payload.extend_from_slice(&checksum.to_be_bytes());
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);

        let decoded = Frame::from_wire_bytes(&bytes).expect("v1 frame must decode");
        match decoded {
            Frame::Submit { job_id, spec } => {
                assert_eq!(job_id, 42);
                assert_eq!(spec.config.preconditioner, PreconditionerKind::None);
                assert_eq!(spec.workload, WorkloadSpec::quickstart());
            }
            other => panic!("expected Submit, got {}", other.name()),
        }
    }

    #[test]
    fn stream_read_sees_clean_eof_and_mid_frame_truncation() {
        let bytes = Frame::Pong { token: 1 }.to_wire_bytes();
        let mut cursor = std::io::Cursor::new(bytes.clone());
        assert!(Frame::read_from(&mut cursor).unwrap().is_some());
        assert!(
            Frame::read_from(&mut cursor).unwrap().is_none(),
            "clean EOF"
        );
        let mut partial = std::io::Cursor::new(bytes[..bytes.len() - 1].to_vec());
        assert!(matches!(
            Frame::read_from(&mut partial),
            Err(WireError::Truncated { .. })
        ));
    }
}
