/**
 * @file
 * Elastic-sharding migration bench: what a live 256-slot move costs the
 * workload that races it.
 *
 * Two points over the same S=2x3 Hermes cluster and workload seed:
 *
 *  a) steady state — no migration; baseline ops/s and p99 latency.
 *  b) migrating — at t=15ms a MigrationCoordinator moves 256 of shard
 *     0's slots to shard 1 (snapshot transfer + catch-up deltas +
 *     locked cutover) while the sessions keep issuing; ops/s and p99
 *     are reported for the move window itself, measured against the
 *     same wall window of the steady run so the comparison is
 *     apples-to-apples.
 *
 * Every point records its full history and must pass the sharded
 * linearizability check — a migration that goes fast by losing a write
 * fails the bench, not just the test suite. A per-5ms throughput
 * timeline (fig-9 style) shows the dip and recovery around the move.
 */

#include "app/lin_checker.hh"
#include "bench_util.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

constexpr TimeNs kMigrateAt = 15_ms;
constexpr DurationNs kBucket = 5_ms;
constexpr uint32_t kSlotsToMove = 256;

struct Point
{
    app::DriverResult result;
    TimeNs moveStart = 0;
    TimeNs moveEnd = 0;
    uint64_t slotsMigrated = 0;
    uint64_t writesParked = 0;
    bool linOk = false;
};

/** ops/s and p99 from the history ops completed inside [from, to). */
struct WindowStats
{
    double opsPerSec = 0.0;
    uint64_t p99Ns = 0;
    uint64_t p999Ns = 0;
    uint64_t ops = 0;
};

WindowStats
windowStats(const app::History &history, TimeNs from, TimeNs to)
{
    WindowStats w;
    Histogram lat;
    for (const app::HistOp &op : history.ops()) {
        if (op.isPending() || op.response < from || op.response >= to)
            continue;
        ++w.ops;
        lat.record(op.response - op.invoke);
    }
    double seconds = static_cast<double>(to - from) / 1e9;
    w.opsPerSec = seconds > 0 ? static_cast<double>(w.ops) / seconds : 0;
    w.p99Ns = lat.valueAtQuantile(0.99);
    w.p999Ns = lat.valueAtQuantile(0.999);
    return w;
}

Point
runPoint(bool migrate)
{
    app::ClusterConfig cluster_config =
        standardCluster(app::Protocol::Hermes, 3, 64, 2);
    // Fig-9-style scaled cost model: with ns-scale ops the closed-loop
    // sessions outrun the coordinator's copy rate and the catch-up
    // drain never converges under load; at the scaled calibration the
    // workload-vs-transfer race has the testbed's real proportions.
    cluster_config.cost.clientOpNs = 6_us;
    cluster_config.cost.kvsOpNs = 7_us;
    cluster_config.cost.recvBaseNs = 14_us;
    cluster_config.cost.sendBaseNs = 9_us;
    cluster_config.replica.hermesConfig.mlt = 5_ms;
    app::SimCluster cluster(cluster_config);
    cluster.start();

    Point point;
    point.moveStart = kMigrateAt;
    if (migrate) {
        std::vector<uint32_t> slots = cluster.slotMap().slotsOwnedBy(0);
        slots.resize(kSlotsToMove);
        cluster.scheduleMigration(kMigrateAt, std::move(slots), 0, 1);
        // Self-rescheduling probe: pin down when the cutover lands so
        // the move window can be measured exactly.
        auto poll = std::make_shared<std::function<void()>>();
        *poll = [&cluster, &point, poll] {
            if (cluster.migrationActive()
                    || !cluster.migration().migrationsCompleted()) {
                cluster.runtime().events().scheduleAt(
                    cluster.now() + 250_us, [poll] { (*poll)(); });
                return;
            }
            if (point.moveEnd == 0)
                point.moveEnd = cluster.now();
        };
        cluster.runtime().events().scheduleAt(kMigrateAt + 250_us,
                                              [poll] { (*poll)(); });
    }

    app::DriverConfig driver_config;
    driver_config.workload.numKeys = 4096;
    driver_config.workload.writeRatio = 0.20;
    driver_config.workload.valueSize = 32;
    driver_config.sessionsPerNode = 24;
    driver_config.warmup = 2_ms;
    driver_config.measure = 60_ms;
    driver_config.quiesceAfter = 30_ms;
    driver_config.recordHistory = true;
    driver_config.timelineBucket = kBucket;
    app::LoadDriver driver(cluster, driver_config);
    point.result = driver.run();

    point.slotsMigrated = cluster.migration().slotsMigrated();
    point.writesParked = cluster.migration().migrationWritesParked();
    point.linOk = app::checkShardedHistory(point.result.history, 1u << 22,
                                           app::LinMode::Jit)
                      .ok();
    return point;
}

} // namespace

int
main()
{
    Point steady = runPoint(false);
    Point moving = runPoint(true);
    if (!steady.linOk || !moving.linOk) {
        std::fprintf(stderr, "LINEARIZABILITY CHECK FAILED (steady=%d "
                             "moving=%d)\n",
                     steady.linOk, moving.linOk);
        return 1;
    }
    if (moving.slotsMigrated != kSlotsToMove || moving.moveEnd == 0) {
        std::fprintf(stderr, "migration did not complete (%llu slots)\n",
                     static_cast<unsigned long long>(moving.slotsMigrated));
        return 1;
    }

    printHeader("Elastic migration: 256-slot live move vs steady state "
                "[S=2x3 Hermes, 20% writes, lin-checked]");
    // The move window of the migrating run, and the same wall window of
    // the steady run.
    WindowStats move_w = windowStats(moving.result.history,
                                     moving.moveStart, moving.moveEnd);
    WindowStats base_w = windowStats(steady.result.history,
                                     moving.moveStart, moving.moveEnd);
    printRow({"phase", "window_ms", "ops_per_sec", "p99_us", "p999_us",
              "ops", "writes_parked"});
    double window_ms =
        static_cast<double>(moving.moveEnd - moving.moveStart) / 1e6;
    printRow({"steady", fmt(window_ms, 2), fmt(base_w.opsPerSec, 0),
              fmtUs(base_w.p99Ns), fmtUs(base_w.p999Ns),
              std::to_string(base_w.ops), "0"});
    printRow({"migrating", fmt(window_ms, 2), fmt(move_w.opsPerSec, 0),
              fmtUs(move_w.p99Ns), fmtUs(move_w.p999Ns),
              std::to_string(move_w.ops),
              std::to_string(moving.writesParked)});

    printHeader("Throughput timeline (Mops per 5ms bucket; move marked)");
    printRow({"t(ms)", "steady", "migrating", ""});
    const std::vector<double> &a = steady.result.timelineMops;
    const std::vector<double> &b = moving.result.timelineMops;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
        TimeNs t = i * kBucket;
        bool in_move = t + kBucket > moving.moveStart && t < moving.moveEnd;
        printRow({std::to_string(t / 1_ms), fmt(a[i], 3), fmt(b[i], 3),
                  in_move ? "<< move" : ""});
    }
    std::printf("# move window %.2fms, %llu slots, %llu writes parked\n",
                window_ms,
                static_cast<unsigned long long>(moving.slotsMigrated),
                static_cast<unsigned long long>(moving.writesParked));
    return 0;
}
