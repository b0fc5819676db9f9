/**
 * @file
 * Deterministic simulator snapshots.
 *
 * A snapshot captures the complete mutable state of a Simulator —
 * device (every neuron potential, each core's settled-through tick,
 * scheduler slot, LFSR position and in-flight board packet),
 * attached sources and the output recorder — as a versioned JSON
 * document.  Nothing the tick derives (wake ticks, fault cursors,
 * link stall counts, routes) is stored.  Restoring a
 * snapshot into a freshly constructed Simulator with the same model
 * and parameters, then running on, is bit-identical to having run
 * the original straight through: the restore point is invisible in
 * the spike record.  The thread count is NOT part of the contract;
 * a snapshot taken at threads=N restores into threads=M because the
 * engines are bit-identical across thread counts.
 *
 * The same machinery backs the checkpoint/rollback recovery loop
 * (Simulator::setCheckpointInterval): a checkpoint is a snapshot
 * held in memory, and a rollback is a restore plus deterministic
 * replay.
 *
 * Snapshots require the functional transport model; the cycle mesh's
 * in-flight flits are not serialized.
 *
 * Simulator::snapshot() writes a document and Simulator::restore()
 * reads one: every field through the checked field reader of
 * util/json.hh (a field of the wrong type, an index past its table
 * is malformed), then the device's checkInvariants() (a state no
 * tick leaves, such as a revived dead core, breaks a named rule).
 * Either way it fails with a diagnostic, never half-trusted and
 * never a crash.
 */

#ifndef NSCS_RUNTIME_SNAPSHOT_HH
#define NSCS_RUNTIME_SNAPSHOT_HH

namespace nscs {

/** Snapshot document version this build reads and writes.
 *  v2 (instance batching): geometry carries the instance-lane count,
 *  core state splits into per-lane records, and recorder/output
 *  entries carry the originating instance.
 *  v3 (one core tick path): a core carries one "doneThrough" tick for
 *  all its lanes, and a lane is its potentials and LFSR; the
 *  per-neuron settle ticks, fire predictions and self-event heap of
 *  v2 are gone.
 *  v4 (one board router): an in-flight board packet is 11 fields;
 *  the dead-link sidestep count is gone, because packets route by a
 *  table over the live links, which restore rebuilds rather than
 *  reads.
 *  v5 (one validity rule): restore derives a chip's "faultCursor"
 *  and "egress" and a board's "deadLinkCursor" and "linkQueued", so
 *  they are gone; the fault, recorder and source keys and every
 *  bucket's "payloads" are required.  Older documents are rejected
 *  with a version diagnostic. */
inline constexpr int kSnapshotVersion = 5;

/** Snapshot document format tag. */
inline constexpr const char *kSnapshotFormat = "nscs-snapshot";

} // namespace nscs

#endif // NSCS_RUNTIME_SNAPSHOT_HH
