/**
 * @file
 * Snapshot/restore tests.
 *
 * The load-bearing property is restore invisibility: running a
 * simulation straight through must be bit-identical to running part
 * way, snapshotting, restoring the snapshot into a freshly built
 * simulator and running the rest — across {Clock, Event} engines,
 * {serial, parallel} execution and {Chip, Board} targets, including
 * board runs with packets parked in flight on constrained links at
 * the snapshot point.  Thread count is explicitly NOT part of the
 * snapshot contract, so a serial snapshot must restore into a
 * parallel simulator (and vice versa) with the same bit-identical
 * continuation.
 *
 * The rejection paths matter just as much: a snapshot from a
 * different format/version/target/engine/geometry must be refused
 * with a diagnostic, never half-applied.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bench/workload.hh"
#include "runtime/simulator.hh"
#include "runtime/snapshot.hh"
#include "util/json.hh"

namespace nscs {
namespace {

constexpr uint64_t kTicks = 40;      //!< full run length
constexpr uint64_t kSplit = 17;      //!< snapshot point (off-cycle)

/**
 * The cortical workload with every third neuron re-aimed at an
 * output line (as in test_board.cc) so runs produce a comparable
 * OutputSpike stream.
 */
bench::CorticalWorkload
tappedWorkload(uint32_t grid_w, uint32_t grid_h, uint64_t seed)
{
    bench::CorticalParams wp;
    wp.gridW = grid_w;
    wp.gridH = grid_h;
    wp.density = 32;
    wp.ratePerTick = 0.05;
    wp.seed = seed;
    bench::CorticalWorkload w = bench::makeCortical(wp);
    const uint32_t neurons = CoreGeometry{}.numNeurons;
    for (uint32_t c = 0; c < w.cores.size(); ++c) {
        for (uint32_t n = 0; n < neurons; n += 3) {
            NeuronDest &d = w.cores[c].dests[n];
            d = NeuronDest{};
            d.kind = NeuronDest::Kind::Output;
            d.line = c * neurons + n;
        }
    }
    return w;
}

std::unique_ptr<Simulator>
chipSim(const bench::CorticalWorkload &w, EngineKind engine,
        uint32_t threads)
{
    return bench::makeCorticalSim(w, engine, NocModel::Functional,
                                  threads);
}

/** Board sim with a constrained link so packets park in flight. */
std::unique_ptr<Simulator>
boardSim(const bench::CorticalWorkload &w, EngineKind engine,
         uint32_t threads)
{
    LinkParams link;
    link.packetsPerTick = 6;  // forces budget stalls into pending_
    link.extraDelay = 2;      // keeps packets in transit across ticks
    return bench::makeCorticalBoardSim(w, engine, 2, 2, threads, link);
}

/**
 * Restore invisibility for one (maker, engine, threads) cell:
 * straight-through reference vs snapshot-at-kSplit restored into a
 * fresh simulator, raw vector equality (same framing, so the
 * determinism contract promises bit-identical streams).
 */
template <typename MakeSim>
void
expectRestoreInvisible(const bench::CorticalWorkload &w,
                       MakeSim make, EngineKind engine,
                       uint32_t threads)
{
    auto ref = make(w, engine, threads);
    ref->run(kTicks);

    auto subject = make(w, engine, threads);
    subject->run(kSplit);
    JsonValue snap = subject->snapshot();

    // Snapshotting is non-destructive: the donor continues
    // bit-identically.
    subject->run(kTicks - kSplit);
    EXPECT_EQ(subject->recorder().spikes(), ref->recorder().spikes());

    auto restored = make(w, engine, threads);
    std::string err;
    ASSERT_TRUE(restored->restore(snap, &err)) << err;
    EXPECT_EQ(restored->now(), kSplit);
    restored->run(kTicks - kSplit);
    EXPECT_EQ(restored->recorder().spikes(), ref->recorder().spikes());
}

TEST(SnapshotRoundTrip, ChipMatrix)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 7);
    for (EngineKind engine : {EngineKind::Clock, EngineKind::Event}) {
        for (uint32_t threads : {0u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << "engine=" << static_cast<int>(engine)
                         << " threads=" << threads);
            expectRestoreInvisible(w, chipSim, engine, threads);
        }
    }
}

TEST(SnapshotRoundTrip, BoardMatrixWithInFlightPackets)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 11);
    for (EngineKind engine : {EngineKind::Clock, EngineKind::Event}) {
        for (uint32_t threads : {0u, 2u}) {
            SCOPED_TRACE(testing::Message()
                         << "engine=" << static_cast<int>(engine)
                         << " threads=" << threads);
            expectRestoreInvisible(w, boardSim, engine, threads);
        }
    }
}

// Thread count is not part of the snapshot contract: a serial
// snapshot restores into a parallel simulator (and back) with a
// bit-identical continuation.
TEST(SnapshotRoundTrip, CrossThreadCountRestore)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 13);
    auto ref = chipSim(w, EngineKind::Event, 0);
    ref->run(kTicks);

    auto donor = chipSim(w, EngineKind::Event, 0);
    donor->run(kSplit);
    JsonValue snap = donor->snapshot();

    auto wide = chipSim(w, EngineKind::Event, 3);
    std::string err;
    ASSERT_TRUE(wide->restore(snap, &err)) << err;
    wide->run(kTicks - kSplit);
    EXPECT_EQ(wide->recorder().spikes(), ref->recorder().spikes());

    // And back: snapshot the parallel sim, restore into serial.
    auto donor2 = chipSim(w, EngineKind::Event, 3);
    donor2->run(kSplit);
    JsonValue snap2 = donor2->snapshot();
    auto narrow = chipSim(w, EngineKind::Event, 0);
    ASSERT_TRUE(narrow->restore(snap2, &err)) << err;
    narrow->run(kTicks - kSplit);
    EXPECT_EQ(narrow->recorder().spikes(), ref->recorder().spikes());
}

TEST(SnapshotRoundTrip, CountersAndRecorderSurvive)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 3);
    auto donor = chipSim(w, EngineKind::Clock, 0);
    donor->run(kSplit);
    JsonValue snap = donor->snapshot();

    auto restored = chipSim(w, EngineKind::Clock, 0);
    std::string err;
    ASSERT_TRUE(restored->restore(snap, &err)) << err;
    EXPECT_EQ(restored->recorder().spikes(),
              donor->recorder().spikes());
    EXPECT_EQ(restored->chip().counters().ticks,
              donor->chip().counters().ticks);
    EXPECT_EQ(restored->chip().counters().spikesRouted,
              donor->chip().counters().spikesRouted);
    EXPECT_EQ(restored->chip().counters().spikesOut,
              donor->chip().counters().spikesOut);
    EXPECT_EQ(restored->chip().counters().hops,
              donor->chip().counters().hops);
}

TEST(SnapshotRoundTrip, FileRoundTrip)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto ref = chipSim(w, EngineKind::Event, 0);
    ref->run(kTicks);

    auto donor = chipSim(w, EngineKind::Event, 0);
    donor->run(kSplit);
    const std::string path = testing::TempDir() + "nscs_snapshot.json";
    std::string err;
    ASSERT_TRUE(donor->saveStateFile(path, &err)) << err;

    auto restored = chipSim(w, EngineKind::Event, 0);
    ASSERT_TRUE(restored->restoreStateFile(path, &err)) << err;
    restored->run(kTicks - kSplit);
    EXPECT_EQ(restored->recorder().spikes(), ref->recorder().spikes());
}

/** Copy of @p obj with member @p key replaced by @p value. */
JsonValue
withMember(JsonValue obj, const std::string &key, JsonValue value)
{
    obj.set(key, std::move(value));
    return obj;
}

/** Copy of array @p arr with element @p i replaced by @p value. */
JsonValue
withElement(const JsonValue &arr, size_t i, JsonValue value)
{
    JsonValue out = JsonValue::array();
    for (size_t k = 0; k < arr.size(); ++k)
        out.append(k == i ? value : arr.at(k));
    return out;
}

/** Copy of @p snap with lane 0 of core 0 replaced by @p lane. */
JsonValue
withCore0Lane0(const JsonValue &snap, JsonValue lane)
{
    const JsonValue &device = snap.at("device");
    const JsonValue &core = device.at("cores").at(0);
    JsonValue lanes = withElement(core.at("lanes"), 0, std::move(lane));
    JsonValue cores = withElement(device.at("cores"), 0,
                                  withMember(core, "lanes", lanes));
    return withMember(snap, "device",
                      withMember(device, "cores", cores));
}

/**
 * A one-core Event chip whose 16 rising-leak neurons each predict a
 * spontaneous fire (neuron n fires at tick 29 + n), so the core idles
 * until its wake at tick 29.
 */
std::unique_ptr<Simulator>
selfEventSim()
{
    CoreGeometry g;
    g.numAxons = 16;
    g.numNeurons = 16;
    g.delaySlots = 16;
    CoreConfig cfg = CoreConfig::make(g);
    for (uint32_t n = 0; n < g.numNeurons; ++n) {
        cfg.neurons[n].leak = 1;
        cfg.neurons[n].threshold = 30 + static_cast<int32_t>(n);
        cfg.dests[n].kind = NeuronDest::Kind::Output;
        cfg.dests[n].line = n;
    }
    ChipParams cp;
    cp.width = 1;
    cp.height = 1;
    cp.coreGeom = g;
    cp.engine = EngineKind::Event;
    return std::make_unique<Simulator>(
        cp, std::vector<CoreConfig>{cfg});
}

/** Copy of @p snap with core 0 replaced by @p core. */
JsonValue
withCore0(const JsonValue &snap, JsonValue core)
{
    const JsonValue &device = snap.at("device");
    JsonValue cores =
        withElement(device.at("cores"), 0, std::move(core));
    return withMember(snap, "device",
                      withMember(device, "cores", cores));
}

TEST(SnapshotRejects, CoreDoneThroughAheadOfChip)
{
    // The core's first wake is neuron 0's fire at tick 29, so after
    // five chip ticks it has run none; the snapshot writes it settled
    // through the chip's tick.
    auto donor = selfEventSim();
    donor->run(5);
    EXPECT_EQ(donor->chip().core(0).counters().ticksRun, 0u);
    JsonValue snap = donor->snapshot();
    const JsonValue &core = snap.at("device").at("cores").at(0);
    ASSERT_EQ(core.at("doneThrough").asInt(), 5);
    std::string err;
    ASSERT_TRUE(selfEventSim()->restore(snap, &err)) << err;

    // A core settled short of the chip's tick, with no wake skipped,
    // is a tick-boundary state too...
    JsonValue behind = withCore0(
        snap, withMember(core, "doneThrough", JsonValue::integer(3)));
    EXPECT_TRUE(selfEventSim()->restore(behind, &err)) << err;

    // ...a core that ran a tick the chip has not reached is not,
    for (int64_t bad : {int64_t{6}, int64_t{1000}, int64_t{-1}}) {
        JsonValue doc = withCore0(
            snap, withMember(core, "doneThrough", JsonValue::integer(bad)));
        err.clear();
        EXPECT_FALSE(selfEventSim()->restore(doc, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }

    // ...nor is a chip tick past the core's wake that the core never
    // ran: neuron 0 was due at tick 29.
    const JsonValue &device = snap.at("device");
    JsonValue late = withMember(
        snap, "device",
        withMember(device, "now", JsonValue::string(u64ToHex(40))));
    err.clear();
    EXPECT_FALSE(selfEventSim()->restore(late, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, MissingDoneThrough)
{
    auto donor = selfEventSim();
    donor->run(5);
    JsonValue snap = donor->snapshot();
    const JsonValue &core = snap.at("device").at("cores").at(0);
    JsonValue stripped = JsonValue::object();
    for (const std::string &key : core.keys())
        if (key != "doneThrough")
            stripped.set(key, core.at(key));
    std::string err;
    EXPECT_FALSE(selfEventSim()->restore(withCore0(snap, stripped), &err));
    EXPECT_FALSE(err.empty());

    // A non-integer tick is rejected, not read.
    JsonValue text = withCore0(
        snap, withMember(core, "doneThrough", JsonValue::string("5")));
    err.clear();
    EXPECT_FALSE(selfEventSim()->restore(text, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, PotentialOutsideRails)
{
    auto donor = selfEventSim();
    donor->run(5);
    JsonValue snap = donor->snapshot();
    const JsonValue &lane =
        snap.at("device").at("cores").at(0).at("lanes").at(0);
    const JsonValue &v = lane.at("v");

    // A value on a 20-bit neuron's rail is register state...
    std::string err;
    JsonValue on_rail = withCore0Lane0(
        snap, withMember(lane, "v",
                         withElement(v, 3, JsonValue::integer(524287))));
    EXPECT_TRUE(selfEventSim()->restore(on_rail, &err)) << err;

    // ...one past either rail is not, nor is a value that int32 would
    // silently truncate.
    for (int64_t bad : {int64_t{524288}, int64_t{-524289},
                        int64_t{5000000}, int64_t{1} << 40}) {
        JsonValue doc = withCore0Lane0(
            snap, withMember(lane, "v",
                             withElement(v, 3, JsonValue::integer(bad))));
        err.clear();
        EXPECT_FALSE(selfEventSim()->restore(doc, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// Documents written while the chip kept a (tick, core) wake agenda
// carry "agenda" and "lastWake" keys.  They load, the keys are
// ignored, and the continuation matches a straight run — counters
// included, so a stale agenda entry cannot add an activation.
TEST(SnapshotRoundTrip, LegacyWakeKeysIgnored)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto ref = chipSim(w, EngineKind::Event, 0);
    ref->run(kTicks);

    auto donor = chipSim(w, EngineKind::Event, 0);
    donor->run(kSplit);
    JsonValue snap = donor->snapshot();
    const JsonValue &device = snap.at("device");
    EXPECT_FALSE(device.has("agenda"));
    EXPECT_FALSE(device.has("lastWake"));

    JsonValue agenda = JsonValue::array();
    for (int64_t core = 0; core < 4; ++core) {
        agenda.append(JsonValue::integer(kSplit + 3));
        agenda.append(JsonValue::integer(core));
    }
    JsonValue last_wake = JsonValue::array();
    for (int core = 0; core < 4; ++core)
        last_wake.append(JsonValue::integer(-1));
    JsonValue legacy = withMember(
        snap, "device",
        withMember(withMember(device, "agenda", agenda), "lastWake",
                   last_wake));

    auto restored = chipSim(w, EngineKind::Event, 0);
    std::string err;
    ASSERT_TRUE(restored->restore(legacy, &err)) << err;
    restored->run(kTicks - kSplit);
    EXPECT_EQ(restored->recorder().spikes(), ref->recorder().spikes());
    EXPECT_EQ(restored->chip().counters().coreActivations,
              ref->chip().counters().coreActivations);
}

TEST(SnapshotRejects, MissingFile)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(sim->restoreStateFile(
        testing::TempDir() + "no_such_snapshot.json", &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, VersionMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    sim->run(5);
    JsonValue snap = sim->snapshot();
    snap.set("version", JsonValue::integer(kSnapshotVersion + 1));
    auto fresh = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(fresh->restore(snap, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(SnapshotRejects, FormatMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    JsonValue snap = sim->snapshot();
    snap.set("format", JsonValue::string("not-a-snapshot"));
    std::string err;
    EXPECT_FALSE(sim->restore(snap, &err));
    EXPECT_NE(err.find("format"), std::string::npos) << err;
}

TEST(SnapshotRejects, TargetMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(4, 4, 5);
    auto chip = chipSim(w, EngineKind::Event, 0);
    chip->run(5);
    JsonValue snap = chip->snapshot();
    auto board = boardSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(board->restore(snap, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, EngineMismatch)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto clock = chipSim(w, EngineKind::Clock, 0);
    clock->run(5);
    JsonValue snap = clock->snapshot();
    auto event = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(event->restore(snap, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, GeometryMismatch)
{
    bench::CorticalWorkload big = tappedWorkload(4, 4, 5);
    auto donor = chipSim(big, EngineKind::Event, 0);
    donor->run(5);
    JsonValue snap = donor->snapshot();
    bench::CorticalWorkload small = tappedWorkload(2, 2, 5);
    auto sim = chipSim(small, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(sim->restore(snap, &err));
    EXPECT_FALSE(err.empty());
}

TEST(SnapshotRejects, GarbageDocument)
{
    bench::CorticalWorkload w = tappedWorkload(2, 2, 5);
    auto sim = chipSim(w, EngineKind::Event, 0);
    std::string err;
    EXPECT_FALSE(sim->restore(JsonValue::integer(42), &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(sim->restore(JsonValue::object(), &err));
    EXPECT_FALSE(err.empty());
}

} // anonymous namespace
} // namespace nscs
