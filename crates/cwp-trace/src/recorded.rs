//! Compact, immutable recordings of a workload's reference stream.
//!
//! Every figure in the paper is a *sweep*: the same six traces driven
//! through dozens of cache configurations. Re-running the workload
//! generators (an LU solve, the Livermore kernels, a maze router, ...)
//! for every sweep point wastes almost all of the simulation budget, so
//! a [`RecordedTrace`] captures a generator's output once and replays
//! it any number of times.
//!
//! The encoding is struct-of-arrays: one `u32` per reference for the
//! instruction gap, one `u64` for the address, and two *bits* for the
//! kind/size pair (four references per metadata byte) — about 12.25
//! bytes per reference against the 16 bytes of a padded `Vec<MemRef>`,
//! with no per-`Vec` reallocation slack multiplied across fields. A
//! [`RecordedTrace`] is immutable and `Send + Sync`, so one recording
//! can be shared by any number of simulation threads.
//!
//! Capture is memory-bounded: a [`TraceRecorder`] given a record limit
//! drops its storage and keeps counting the moment the limit is hit,
//! so an over-budget workload costs one generator pass and a
//! [`RecordingOverflow`] — never an unbounded allocation. Callers fall
//! back to live generation in that case.
//!
//! # Examples
//!
//! ```
//! use cwp_trace::{workloads, RecordedTrace, Scale, Workload};
//!
//! let liver = workloads::liver();
//! let trace = RecordedTrace::record(liver.as_ref(), Scale::Test);
//! let mut stores = 0u64;
//! let summary = trace.replay(&mut |r: cwp_trace::MemRef| {
//!     if r.is_write() {
//!         stores += 1;
//!     }
//! });
//! assert_eq!(stores, summary.writes);
//! ```

use std::fmt;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use cwp_chaos::ChaosIo;

use crate::io::{TraceReader, TraceWriter};
use crate::record::{AccessKind, MemRef};
use crate::scale::Scale;
use crate::workload::{TraceSink, TraceSummary, Workload};

/// Approximate memory footprint of one recorded reference, in bytes:
/// 4 (gap) + 8 (address) + 1/4 (packed kind/size), rounded up. Budgets
/// divide by this to pick a record limit.
pub const APPROX_BYTES_PER_REF: u64 = 13;

/// References per segment of a [`RecordedTrace`] (~12.25 MiB each).
///
/// Paper-scale recordings (187.6M references ≈ 2.3 GiB) cannot live in
/// one contiguous allocation per field: growing a flat `Vec<u64>` of
/// addresses doubles through multi-gigabyte reallocations, and the
/// final resize wants contiguous address space the store budget was
/// never asked about. Segmenting bounds every allocation to one chunk
/// and lets streaming consumers process a recording chunk-at-a-time.
///
/// Must stay a multiple of 4: metadata packs four references per byte,
/// so a multiple-of-4 boundary keeps each chunk's `meta` bytes exactly
/// the bytes a flat encoding would hold — which is what keeps
/// [`RecordedTrace::content_hash`] independent of segmentation.
pub const CHUNK_REFS: usize = 1 << 20;

/// File extension used for traces saved with [`RecordedTrace::save`].
pub const TRACE_FILE_EXT: &str = "cwptrc";

// Metadata bits, two per reference, four references per byte.
const META_WRITE: u8 = 0b01;
const META_WIDE: u8 = 0b10;

/// One segment of a recording: up to `chunk_refs` references in the
/// struct-of-arrays encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TraceChunk {
    gaps: Vec<u32>,
    addrs: Vec<u64>,
    meta: Vec<u8>,
}

impl TraceChunk {
    fn len(&self) -> usize {
        self.gaps.len()
    }

    #[inline]
    fn get(&self, j: usize) -> MemRef {
        let bits = self.meta[j / 4] >> ((j % 4) * 2);
        MemRef {
            before_insts: self.gaps[j],
            kind: if bits & META_WRITE != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            addr: self.addrs[j],
            size: if bits & META_WIDE != 0 { 8 } else { 4 },
        }
    }

    fn iter(&self) -> impl Iterator<Item = MemRef> + '_ {
        (0..self.len()).map(|j| self.get(j))
    }
}

/// A borrowed view of one segment of a [`RecordedTrace`], as yielded by
/// [`RecordedTrace::chunks`]. Streaming consumers (the chunked banked
/// pass, per-chunk cancellation polls) iterate these instead of asking
/// for the whole recording at once.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView<'a> {
    chunk: &'a TraceChunk,
}

impl ChunkView<'_> {
    /// References in this chunk.
    pub fn len(&self) -> usize {
        self.chunk.len()
    }

    /// Returns `true` when the chunk holds no references.
    pub fn is_empty(&self) -> bool {
        self.chunk.len() == 0
    }

    /// The `j`-th reference of this chunk.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    pub fn get(&self, j: usize) -> MemRef {
        self.chunk.get(j)
    }

    /// Iterates this chunk's references in emission order.
    pub fn iter(&self) -> impl Iterator<Item = MemRef> + '_ {
        self.chunk.iter()
    }
}

/// An immutable, replayable recording of one workload run.
///
/// Obtained from [`RecordedTrace::record`] (or the bounded
/// [`RecordedTrace::record_bounded`]), from a disk trace via
/// [`RecordedTrace::load`], or by finishing a [`TraceRecorder`].
///
/// Storage is segmented into [`CHUNK_REFS`]-reference chunks so
/// paper-scale recordings never need one multi-gigabyte allocation per
/// field; [`RecordedTrace::chunks`] exposes the segments to streaming
/// consumers. Two recordings compare equal when they hold the same
/// reference sequence and summary, regardless of how that sequence is
/// segmented.
///
/// [`RecordedTrace::replay`] is drop-in equivalent to
/// [`Workload::run`]: it pushes the identical [`MemRef`] sequence into
/// the sink and returns the identical [`TraceSummary`] — including the
/// trailing compute-only instructions that follow the final reference,
/// which the reference stream alone cannot carry.
#[derive(Debug, Clone)]
pub struct RecordedTrace {
    chunks: Vec<TraceChunk>,
    /// Total references across all chunks.
    len: usize,
    /// References per full chunk (every chunk but the last is full).
    chunk_refs: usize,
    summary: TraceSummary,
    /// [`RecordedTrace::content_hash`], filled by its first call. The
    /// recording never changes after [`TraceRecorder::finish`], so the
    /// cached value cannot go stale.
    hash: OnceLock<u64>,
}

impl Default for RecordedTrace {
    fn default() -> Self {
        RecordedTrace {
            chunks: Vec::new(),
            len: 0,
            chunk_refs: CHUNK_REFS,
            summary: TraceSummary::default(),
            hash: OnceLock::new(),
        }
    }
}

impl PartialEq for RecordedTrace {
    /// Segmentation-independent equality: same summary, same reference
    /// sequence. A trace recorded at one chunk size equals its disk
    /// round trip re-chunked at another. Whether the content hash has
    /// been cached yet does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.summary == other.summary
            && self.len == other.len
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for RecordedTrace {}

impl RecordedTrace {
    /// Records `workload` at `scale` with no memory bound.
    ///
    /// Prefer [`RecordedTrace::record_bounded`] anywhere the trace
    /// length is not already known to be small.
    pub fn record(workload: &dyn Workload, scale: Scale) -> Self {
        Self::record_bounded(workload, scale, usize::MAX)
            .expect("an unbounded recording cannot overflow")
    }

    /// Records `workload` at `scale`, keeping at most `max_records`
    /// references in memory.
    ///
    /// # Errors
    ///
    /// Returns [`RecordingOverflow`] when the workload emits more than
    /// `max_records` references; the recorder's storage was released
    /// the moment the limit was crossed, so the only cost is the one
    /// generator pass.
    pub fn record_bounded(
        workload: &dyn Workload,
        scale: Scale,
        max_records: usize,
    ) -> Result<Self, RecordingOverflow> {
        let mut recorder = TraceRecorder::with_limit(max_records);
        let summary = workload.run(scale, &mut recorder);
        recorder.finish(summary)
    }

    /// Number of recorded references.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the recording holds no references.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The run totals [`Workload::run`] reported, verbatim.
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// Number of storage segments. Every segment but the last holds
    /// exactly the recorder's chunk size ([`CHUNK_REFS`] by default).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Iterates the recording's storage segments in order. The
    /// concatenation of all chunks is exactly [`RecordedTrace::iter`].
    pub fn chunks(&self) -> impl Iterator<Item = ChunkView<'_>> {
        self.chunks.iter().map(|chunk| ChunkView { chunk })
    }

    /// Approximate heap footprint of the recording, in bytes, summed
    /// over all segments.
    pub fn approx_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c.gaps.len() as u64 * 4 + c.addrs.len() as u64 * 8 + c.meta.len() as u64)
            .sum()
    }

    /// A deterministic 64-bit digest of the recording's content
    /// (every reference plus the run totals), FNV-1a over the
    /// struct-of-arrays encoding.
    ///
    /// Two traces hash equal exactly when they compare equal, so the
    /// digest is a stable identity for memoizing simulation results
    /// keyed by `(trace, configuration)` — including across processes
    /// and save/load round trips, which byte-preserve the encoding.
    ///
    /// The hash is computed lazily: the first call scans the whole
    /// recording byte by byte, and every later call on this recording
    /// (or on a clone made after it) returns the cached value. A server
    /// that answers every request for a workload from one shared
    /// recording therefore pays the scan once, not once per request.
    /// It is deliberately not computed in [`TraceRecorder::finish`]:
    /// most recordings are replayed and never hashed. A paper-scale
    /// sweep records 187.6M references, and at ~19 ns per reference
    /// eager hashing would add about 3.5 s that nobody reads.
    pub fn content_hash(&self) -> u64 {
        *self.hash.get_or_init(|| {
            const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut h = FNV_OFFSET;
            let mut eat = |byte: u8| {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            };
            for word in [
                self.summary.instructions,
                self.summary.reads,
                self.summary.writes,
                self.len as u64,
            ] {
                word.to_le_bytes().into_iter().for_each(&mut eat);
            }
            // Chunk sizes are multiples of 4, so the concatenated
            // per-chunk byte streams are exactly the flat encoding's:
            // the hash is independent of segmentation.
            for c in &self.chunks {
                for gap in &c.gaps {
                    gap.to_le_bytes().into_iter().for_each(&mut eat);
                }
            }
            for c in &self.chunks {
                for addr in &c.addrs {
                    addr.to_le_bytes().into_iter().for_each(&mut eat);
                }
            }
            for c in &self.chunks {
                for &meta in &c.meta {
                    eat(meta);
                }
            }
            h
        })
    }

    /// The `i`-th reference.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> MemRef {
        assert!(i < self.len, "reference {i} out of {}", self.len);
        self.chunks[i / self.chunk_refs].get(i % self.chunk_refs)
    }

    /// Iterates over the recorded references in emission order,
    /// chunk by chunk.
    pub fn iter(&self) -> impl Iterator<Item = MemRef> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Replays the recording into `sink`, returning the original run's
    /// totals. Drop-in equivalent to [`Workload::run`].
    pub fn replay(&self, sink: &mut dyn TraceSink) -> TraceSummary {
        for c in &self.chunks {
            for r in c.iter() {
                sink.record(r);
            }
        }
        self.summary
    }

    /// Writes the recording to `path` in the binary trace format,
    /// including the summary footer that preserves trailing
    /// compute-only instructions. Returns the number of records.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, path: &Path) -> io::Result<u64> {
        self.save_with(&cwp_chaos::RealIo, path)
    }

    /// As [`RecordedTrace::save`], through a [`ChaosIo`] backend. The
    /// file is committed with write-then-rename, so a crash (or an
    /// injected fault) at any boundary leaves either the previous
    /// complete trace or the new one — never a torn file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the backend's write or commit rename.
    pub fn save_with(&self, io: &dyn ChaosIo, path: &Path) -> io::Result<u64> {
        let mut bytes = Vec::new();
        let records = self.write_to(&mut bytes)?;
        cwp_chaos::write_atomic(io, path, &bytes)?;
        Ok(records)
    }

    /// As [`RecordedTrace::save`], onto any writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn write_to<W: Write>(&self, out: W) -> io::Result<u64> {
        let mut writer = TraceWriter::new(out)?;
        for r in self.iter() {
            writer.record(r);
        }
        writer.finish_with_summary(self.summary)
    }

    /// Loads a recording from a binary trace file.
    ///
    /// Traces written without a summary footer (by a plain
    /// [`TraceWriter::finish`]) load fine; their summary is the fold of
    /// the reference stream, which is exact except for compute-only
    /// instructions after the last reference.
    ///
    /// # Errors
    ///
    /// Returns a typed [`TraceFileError`]: [`TraceFileError::Malformed`]
    /// for a bad header, corrupt record, or truncated file, and
    /// [`TraceFileError::Io`] for underlying I/O failures.
    pub fn load(path: &Path) -> Result<Self, TraceFileError> {
        Self::load_with(&cwp_chaos::RealIo, path)
    }

    /// As [`RecordedTrace::load`], through a [`ChaosIo`] backend. The
    /// whole file is read first (with the backend's `EINTR` retry
    /// loop), then decoded; a short read or corrupt content surfaces as
    /// [`TraceFileError::Malformed`], never as a silently truncated
    /// trace.
    ///
    /// # Errors
    ///
    /// As [`RecordedTrace::load`].
    pub fn load_with(io: &dyn ChaosIo, path: &Path) -> Result<Self, TraceFileError> {
        let classify = |e: io::Error| TraceFileError::classify(path, e);
        let bytes = cwp_chaos::retry_interrupted(|| io.read(path)).map_err(classify)?;
        Self::read_from(&bytes[..]).map_err(classify)
    }

    /// As [`RecordedTrace::load`], from any reader. Errors are plain
    /// [`io::Error`]s; [`RecordedTrace::load`] adds the path context.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for malformed content and any underlying
    /// I/O error otherwise.
    pub fn read_from<R: Read>(input: R) -> io::Result<Self> {
        let mut reader = TraceReader::new(input)?;
        let mut recorder = TraceRecorder::new();
        for item in reader.by_ref() {
            recorder.record(item?);
        }
        let mut summary = recorder.folded_summary();
        summary.instructions += reader.trailing_insts().unwrap_or(0);
        Ok(recorder
            .finish(summary)
            .expect("an unbounded recorder cannot overflow"))
    }
}

impl<'a> IntoIterator for &'a RecordedTrace {
    type Item = MemRef;
    type IntoIter = Box<dyn Iterator<Item = MemRef> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A [`TraceSink`] that builds a [`RecordedTrace`], with an optional
/// record limit.
///
/// When the limit is crossed the recorder frees its storage and keeps
/// counting, so an over-budget run costs no further memory;
/// [`TraceRecorder::finish`] then reports the overflow.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    trace: RecordedTrace,
    limit: usize,
    seen: u64,
    folded: TraceSummary,
    overflowed: bool,
}

impl TraceRecorder {
    /// A recorder with no memory bound.
    pub fn new() -> Self {
        Self::with_limit(usize::MAX)
    }

    /// A recorder that keeps at most `max_records` references, stored
    /// in [`CHUNK_REFS`]-reference segments.
    pub fn with_limit(max_records: usize) -> Self {
        Self::with_limit_and_chunk(max_records, CHUNK_REFS)
    }

    /// As [`TraceRecorder::with_limit`], with an explicit segment size.
    /// Production callers want the default; tests use small chunks to
    /// exercise multi-segment recordings without multi-million-reference
    /// traces.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk_refs` is a positive multiple of 4 (four
    /// references pack into each metadata byte; see [`CHUNK_REFS`]).
    pub fn with_limit_and_chunk(max_records: usize, chunk_refs: usize) -> Self {
        assert!(
            chunk_refs > 0 && chunk_refs.is_multiple_of(4),
            "chunk_refs must be a positive multiple of 4, got {chunk_refs}"
        );
        TraceRecorder {
            trace: RecordedTrace {
                chunk_refs,
                ..RecordedTrace::default()
            },
            limit: max_records,
            seen: 0,
            folded: TraceSummary::default(),
            overflowed: false,
        }
    }

    /// References offered so far (including any dropped by overflow).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Returns `true` once the record limit has been crossed.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The summary folded from the references seen so far. Unlike a
    /// [`Workload::run`] return value this cannot include compute-only
    /// instructions after the final reference.
    pub fn folded_summary(&self) -> TraceSummary {
        self.folded
    }

    /// Seals the recording. `summary` should be the value returned by
    /// [`Workload::run`]; it is stored verbatim so replays reproduce
    /// the run totals exactly.
    ///
    /// # Errors
    ///
    /// Returns [`RecordingOverflow`] when the record limit was crossed.
    pub fn finish(self, summary: TraceSummary) -> Result<RecordedTrace, RecordingOverflow> {
        if self.overflowed {
            return Err(RecordingOverflow {
                seen: self.seen,
                limit: self.limit,
            });
        }
        debug_assert_eq!(summary.reads, self.folded.reads, "summary/stream read skew");
        debug_assert_eq!(
            summary.writes, self.folded.writes,
            "summary/stream write skew"
        );
        let mut trace = self.trace;
        trace.summary = summary;
        Ok(trace)
    }
}

impl TraceSink for TraceRecorder {
    #[inline]
    fn record(&mut self, r: MemRef) {
        self.seen += 1;
        self.folded.instructions += u64::from(r.before_insts);
        match r.kind {
            AccessKind::Read => self.folded.reads += 1,
            AccessKind::Write => self.folded.writes += 1,
        }
        if self.overflowed {
            return;
        }
        if self.trace.len >= self.limit {
            self.overflowed = true;
            self.trace.chunks = Vec::new();
            self.trace.len = 0;
            return;
        }
        let chunk_refs = self.trace.chunk_refs;
        if self.trace.len.is_multiple_of(chunk_refs) {
            self.trace.chunks.push(TraceChunk::default());
        }
        let chunk = self.trace.chunks.last_mut().expect("chunk exists");
        let i = chunk.len();
        chunk.gaps.push(r.before_insts);
        chunk.addrs.push(r.addr);
        let mut bits = 0u8;
        if r.kind == AccessKind::Write {
            bits |= META_WRITE;
        }
        if r.size == 8 {
            bits |= META_WIDE;
        }
        if i.is_multiple_of(4) {
            chunk.meta.push(bits);
        } else {
            let byte = chunk.meta.last_mut().expect("meta byte exists");
            *byte |= bits << ((i % 4) * 2);
        }
        self.trace.len += 1;
    }
}

/// A workload emitted more references than the recorder's limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordingOverflow {
    /// References the workload emitted.
    pub seen: u64,
    /// The recorder's limit.
    pub limit: usize,
}

impl fmt::Display for RecordingOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recording overflowed: {} references against a limit of {}",
            self.seen, self.limit
        )
    }
}

impl std::error::Error for RecordingOverflow {}

/// Why a trace file could not be loaded.
///
/// Splits honest I/O failures from malformed content so callers can
/// report "your trace file is corrupt" distinctly from "the disk went
/// away" — and neither as a panic.
#[derive(Debug)]
pub enum TraceFileError {
    /// Reading the file failed below the format layer.
    Io {
        /// The trace file.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file's content is not a valid trace: bad magic, corrupt
    /// record flags, an unaligned address, a truncated record, or data
    /// after the footer.
    Malformed {
        /// The trace file.
        path: PathBuf,
        /// What exactly was wrong.
        detail: String,
    },
}

impl TraceFileError {
    fn classify(path: &Path, e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::InvalidData => TraceFileError::Malformed {
                path: path.to_path_buf(),
                detail: e.to_string(),
            },
            io::ErrorKind::UnexpectedEof => TraceFileError::Malformed {
                path: path.to_path_buf(),
                detail: "file ends before the trace header is complete".to_string(),
            },
            _ => TraceFileError::Io {
                path: path.to_path_buf(),
                source: e,
            },
        }
    }

    /// The offending file.
    pub fn path(&self) -> &Path {
        match self {
            TraceFileError::Io { path, .. } | TraceFileError::Malformed { path, .. } => path,
        }
    }
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            TraceFileError::Malformed { path, detail } => {
                write!(f, "{}: corrupt trace file: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io { source, .. } => Some(source),
            TraceFileError::Malformed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::Capture;
    use crate::workloads;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn recordings_are_shareable_across_threads() {
        assert_send_sync::<RecordedTrace>();
    }

    #[test]
    fn replay_reproduces_the_generator_run_exactly() {
        let w = workloads::yacc();
        let mut live = Capture::new();
        let live_summary = w.run(Scale::Test, &mut live);

        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let mut replayed = Capture::new();
        let replay_summary = trace.replay(&mut replayed);

        assert_eq!(replay_summary, live_summary, "summary must be verbatim");
        assert_eq!(replayed.records(), live.records());
        assert_eq!(trace.len(), live.records().len());
        assert_eq!(trace.summary(), live_summary);
    }

    #[test]
    fn soa_encoding_beats_a_vec_of_memrefs() {
        let w = workloads::liver();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        assert!(!trace.is_empty());
        let aos = trace.len() as u64 * std::mem::size_of::<MemRef>() as u64;
        assert!(
            trace.approx_bytes() * 5 < aos * 4,
            "SoA {} vs AoS {aos} bytes",
            trace.approx_bytes()
        );
        assert!(trace.approx_bytes() <= trace.len() as u64 * APPROX_BYTES_PER_REF);
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let w = workloads::yacc();
        let a = RecordedTrace::record(w.as_ref(), Scale::Test);
        let b = RecordedTrace::record(w.as_ref(), Scale::Test);
        assert_eq!(
            a.content_hash(),
            b.content_hash(),
            "deterministic workloads record identical traces"
        );
        let other = RecordedTrace::record(workloads::met().as_ref(), Scale::Test);
        assert_ne!(a.content_hash(), other.content_hash());
        assert_ne!(
            a.content_hash(),
            RecordedTrace::default().content_hash(),
            "the empty trace hashes differently"
        );
    }

    /// `content_hash()` of `met` at `Scale::Test`. Memo journals written
    /// by earlier servers are keyed by this value, so it must not move.
    const MET_TEST_HASH: u64 = 0x5b68_b037_b6ab_3f23;

    #[test]
    fn content_hash_is_pinned_cached_and_shared_by_every_copy() {
        let original = RecordedTrace::record(workloads::met().as_ref(), Scale::Test);
        assert!(original.hash.get().is_none(), "recording must not hash");
        // A clone, a disk round trip and a 64-ref rechunk of `t`.
        let copies = |t: &RecordedTrace| {
            let mut bytes = Vec::new();
            t.write_to(&mut bytes).unwrap();
            [
                t.clone(),
                RecordedTrace::read_from(&bytes[..]).unwrap(),
                rechunk(t, 64),
            ]
        };

        // Copies hashed before the original's hash is cached...
        let before = copies(&original);
        for (i, copy) in before.iter().enumerate() {
            assert_eq!(copy.content_hash(), MET_TEST_HASH, "early copy {i}");
        }
        assert!(original.hash.get().is_none(), "copies hash on their own");

        assert_eq!(original.content_hash(), MET_TEST_HASH);
        assert_eq!(original.hash.get(), Some(&MET_TEST_HASH), "cached");
        assert_eq!(original.content_hash(), MET_TEST_HASH, "repeat call");

        // ...and copies made after: a clone carries the cached value,
        // the others compute the same one afresh.
        let after = copies(&original);
        assert_eq!(after[0].hash.get(), Some(&MET_TEST_HASH));
        assert!(after[1].hash.get().is_none() && after[2].hash.get().is_none());
        for (i, copy) in after.iter().enumerate() {
            assert_eq!(copy.content_hash(), MET_TEST_HASH, "late copy {i}");
        }

        // Equality ignores whether the hash was cached.
        let unhashed = RecordedTrace::record(workloads::met().as_ref(), Scale::Test);
        assert_eq!(unhashed, original);
        assert!(unhashed.hash.get().is_none());
    }

    #[test]
    fn get_round_trips_every_field() {
        let refs = [
            MemRef::read(0x1000, 4).with_gap(3),
            MemRef::write(0x2008, 8).with_gap(1),
            MemRef::write(0x44, 4).with_gap(77),
            MemRef::read(0x60, 8).with_gap(2),
            MemRef::read(0x70, 8).with_gap(1),
        ];
        let mut rec = TraceRecorder::new();
        for r in refs {
            rec.record(r);
        }
        let summary = rec.folded_summary();
        let trace = rec.finish(summary).unwrap();
        let got: Vec<MemRef> = trace.iter().collect();
        assert_eq!(got, refs);
    }

    /// Re-records `trace`'s reference stream at a tiny chunk size so
    /// tests exercise multi-segment recordings cheaply.
    fn rechunk(trace: &RecordedTrace, chunk_refs: usize) -> RecordedTrace {
        let mut rec = TraceRecorder::with_limit_and_chunk(usize::MAX, chunk_refs);
        for r in trace.iter() {
            rec.record(r);
        }
        rec.finish(trace.summary()).unwrap()
    }

    #[test]
    fn segmented_storage_is_invisible_to_every_consumer() {
        let w = workloads::met();
        let flat = RecordedTrace::record(w.as_ref(), Scale::Test);
        let segmented = rechunk(&flat, 64);
        assert!(flat.len() > 200, "need several chunks at chunk size 64");
        assert!(segmented.chunk_count() > 3);
        assert_eq!(flat.chunk_count(), 1, "test scale fits one default chunk");

        // Same identity, same content, same random access.
        assert_eq!(segmented, flat);
        assert_eq!(segmented.content_hash(), flat.content_hash());
        assert_eq!(segmented.approx_bytes(), flat.approx_bytes());
        for i in [0, 1, 63, 64, 65, flat.len() - 1] {
            assert_eq!(segmented.get(i), flat.get(i), "ref {i}");
        }

        // Chunk views concatenate to the full stream.
        let via_chunks: Vec<MemRef> = segmented
            .chunks()
            .flat_map(|c| c.iter().collect::<Vec<_>>())
            .collect();
        let direct: Vec<MemRef> = flat.iter().collect();
        assert_eq!(via_chunks, direct);
        assert_eq!(
            segmented.chunks().map(|c| c.len()).sum::<usize>(),
            segmented.len()
        );

        // Replay is byte-for-byte the same drive.
        let mut a = Capture::new();
        let mut b = Capture::new();
        assert_eq!(segmented.replay(&mut a), flat.replay(&mut b));
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn segmented_traces_save_and_load_byte_identically() {
        let w = workloads::grr();
        let flat = RecordedTrace::record(w.as_ref(), Scale::Test);
        let segmented = rechunk(&flat, 32);
        let mut flat_bytes = Vec::new();
        let mut seg_bytes = Vec::new();
        flat.write_to(&mut flat_bytes).unwrap();
        segmented.write_to(&mut seg_bytes).unwrap();
        assert_eq!(
            seg_bytes, flat_bytes,
            "the wire format is segmentation-free"
        );
        let loaded = RecordedTrace::read_from(&seg_bytes[..]).unwrap();
        assert_eq!(loaded, segmented);
        assert_eq!(loaded.content_hash(), segmented.content_hash());
    }

    #[test]
    fn bounded_capture_overflows_and_frees_storage() {
        let w = workloads::ccom();
        let err = RecordedTrace::record_bounded(w.as_ref(), Scale::Test, 10).unwrap_err();
        assert_eq!(err.limit, 10);
        assert!(err.seen > 10);
        assert!(err.to_string().contains("limit of 10"));
    }

    #[test]
    fn recorder_reports_overflow_state() {
        let mut rec = TraceRecorder::with_limit(1);
        rec.record(MemRef::read(0, 4));
        assert!(!rec.overflowed());
        rec.record(MemRef::read(8, 4));
        assert!(rec.overflowed());
        assert_eq!(rec.seen(), 2);
        assert!(rec.finish(TraceSummary::default()).is_err());
    }

    #[test]
    fn save_and_load_round_trip_preserves_the_summary() {
        let w = workloads::grr();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let dir = std::env::temp_dir().join(format!("cwp-recorded-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grr.cwptrc");
        let written = trace.save(&path).unwrap();
        assert_eq!(written, trace.len() as u64);
        let loaded = RecordedTrace::load(&path).unwrap();
        assert_eq!(loaded, trace, "records and summary both survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_instructions_survive_the_disk_round_trip() {
        // A run whose last event is compute, not a reference.
        let mut rec = TraceRecorder::new();
        rec.record(MemRef::read(0x100, 4).with_gap(5));
        let summary = TraceSummary {
            instructions: 12, // 5 before the read + 7 trailing
            reads: 1,
            writes: 0,
        };
        let trace = rec.finish(summary).unwrap();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let loaded = RecordedTrace::read_from(&bytes[..]).unwrap();
        assert_eq!(loaded.summary().instructions, 12);
    }

    #[test]
    fn load_reports_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join(format!("cwp-recorded-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("nope.cwptrc");
        assert!(matches!(
            RecordedTrace::load(&missing).unwrap_err(),
            TraceFileError::Io { .. }
        ));

        let bad_magic = dir.join("bad.cwptrc");
        std::fs::write(&bad_magic, b"NOTATRACEATALL").unwrap();
        let e = RecordedTrace::load(&bad_magic).unwrap_err();
        assert!(matches!(e, TraceFileError::Malformed { .. }), "{e}");

        let truncated = dir.join("short.cwptrc");
        let w = workloads::met();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        std::fs::write(&truncated, &bytes).unwrap();
        let e = RecordedTrace::load(&truncated).unwrap_err();
        assert!(matches!(e, TraceFileError::Malformed { .. }), "{e}");
        assert!(e.to_string().contains("corrupt trace file"), "{e}");
        assert_eq!(e.path(), truncated.as_path());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_backend_round_trips_or_fails_typed_never_truncates() {
        use cwp_chaos::{FaultPlan, FaultyIo};

        let dir = std::env::temp_dir().join(format!("cwp-recorded-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grr.cwptrc");
        let w = workloads::grr();
        let trace = RecordedTrace::record(w.as_ref(), Scale::Test);

        // Transient-only faults: the EINTR retry loops absorb them and
        // the round trip is exact.
        let flaky = FaultyIo::new(FaultPlan::transient_only(200_000, 0x7AC3));
        trace.save_with(&flaky, &path).unwrap();
        assert_eq!(RecordedTrace::load_with(&flaky, &path).unwrap(), trace);

        // Every fault kind at a high rate: each attempt either round
        // trips exactly or fails with a typed error — a load never
        // silently returns fewer records than were saved.
        let hostile = FaultyIo::new(FaultPlan::uniform(120_000, 0x0DDC0FFE));
        let mut exact = 0;
        for _ in 0..50 {
            if trace.save_with(&hostile, &path).is_err() {
                continue; // nothing committed; path holds an old complete trace
            }
            match RecordedTrace::load_with(&hostile, &path) {
                Ok(loaded) => {
                    assert_eq!(loaded, trace, "a successful load is byte-exact");
                    exact += 1;
                }
                Err(e) => assert!(
                    matches!(
                        e,
                        TraceFileError::Io { .. } | TraceFileError::Malformed { .. }
                    ),
                    "{e}"
                ),
            }
        }
        assert!(exact > 0, "some round trips survive the fault storm");
        assert!(
            hostile.stats().injected() > 0,
            "the storm actually injected faults"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
