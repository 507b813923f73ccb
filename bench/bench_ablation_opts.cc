/**
 * @file
 * Ablations of Hermes' design choices (paper §3.3 optimizations plus the
 * design properties §3.1 credits for its performance):
 *
 *  O1  skip-VAL-on-conflict .... VAL messages saved under contention
 *  O2  virtual node ids ........ conflict-win fairness across nodes
 *  O3  ACK broadcasting ........ stalled-read latency under skew
 *  inter-key concurrency ....... throughput of concurrent independent
 *                                writes vs a serialized ablation
 *  mlt calibration ............. spurious replays vs recovery latency
 */

#include <cstdlib>
#include <filesystem>

#include "app/lin_checker.hh"
#include "bench_util.hh"
#include "hermes/replica.hh"
#include "store/wal.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

/** Lin-check failures across sweeps; a non-zero count fails the run so
 *  the nightly job catches consistency regressions, not just readers
 *  diffing CSV artifacts. */
int g_linFailures = 0;

app::DriverResult
runHermes(const proto::HermesConfig &hermes_config,
          const app::DriverConfig &driver_config, double loss = 0.0)
{
    app::ClusterConfig cluster_config =
        standardCluster(app::Protocol::Hermes, 5);
    cluster_config.replica.hermesConfig = hermes_config;
    app::SimCluster cluster(cluster_config);
    cluster.start();
    if (loss > 0)
        cluster.runtime().network().setLossProbability(loss);
    app::DriverConfig config = driver_config;
    app::LoadDriver driver(cluster, config);
    app::DriverResult result = driver.run();
    // Aggregate protocol counters for the ablation report.
    uint64_t vals_skipped = 0, replays = 0, retransmits = 0;
    uint64_t stalled = 0;
    for (NodeId n = 0; n < 5; ++n) {
        const proto::HermesStats &stats =
            cluster.replica(n).hermes()->stats();
        vals_skipped += stats.valsSkipped;
        replays += stats.replaysStarted;
        retransmits += stats.invRetransmits;
        stalled += stats.readsStalled;
    }
    std::printf("    [valsSkipped=%llu replays=%llu retransmits=%llu "
                "readsStalled=%llu]\n",
                (unsigned long long)vals_skipped,
                (unsigned long long)replays,
                (unsigned long long)retransmits,
                (unsigned long long)stalled);
    return result;
}

void
ablationO1()
{
    printHeader("O1: skip VAL broadcasts on conflicted writes "
                "[zipf 0.99, 50% writes]");
    for (bool on : {true, false}) {
        proto::HermesConfig hermes_config;
        hermes_config.skipValOnConflict = on;
        app::DriverConfig driver = standardDriver(0.5, 0.99, 32);
        driver.workload.numKeys = 64; // heavy same-key contention
        driver.measure = 2_ms;
        std::printf("  O1=%s:\n", on ? "on " : "off");
        app::DriverResult result = runHermes(hermes_config, driver);
        std::printf("    throughput %.1f MReq/s\n", result.throughputMops);
    }
}

void
ablationO2()
{
    printHeader("O2: virtual node ids -> conflict-win fairness "
                "[3 nodes, same-key conflicts]");
    for (unsigned vids : {1u, 8u}) {
        app::ClusterConfig cluster_config =
            standardCluster(app::Protocol::Hermes, 3);
        cluster_config.cost.netJitterNs = 0;
        cluster_config.replica.hermesConfig.virtualIdsPerNode = vids;
        app::SimCluster cluster(cluster_config);
        cluster.start();
        int wins[3] = {0, 0, 0};
        for (int round = 0; round < 200; ++round) {
            Key key = 5000 + round;
            cluster.write(0, key, "n0", [] {});
            cluster.write(1, key, "n1", [] {});
            cluster.write(2, key, "n2", [] {});
            cluster.runFor(3_ms);
            Value winner = cluster.readSync(0, key).value_or("");
            if (winner.size() == 2)
                ++wins[winner[1] - '0'];
        }
        std::printf("  vids=%u: wins n0=%d n1=%d n2=%d\n", vids, wins[0],
                    wins[1], wins[2]);
    }
}

void
ablationO3()
{
    printHeader("O3: ACK broadcast -> stalled-read latency "
                "[zipf 0.99, 20% writes]");
    for (bool on : {false, true}) {
        proto::HermesConfig hermes_config;
        hermes_config.ackBroadcast = on;
        app::DriverConfig driver = standardDriver(0.2, 0.99, 32);
        driver.workload.numKeys = 256;
        driver.measure = 2_ms;
        std::printf("  O3=%s:\n", on ? "on " : "off");
        app::DriverResult result = runHermes(hermes_config, driver);
        std::printf("    read p99 %.1f us, throughput %.1f MReq/s\n",
                    result.readLatencyNs.p99() / 1e3,
                    result.throughputMops);
    }
}

void
ablationInterKey()
{
    printHeader("Inter-key concurrency vs serialized writes "
                "[uniform, 20% writes]");
    for (bool concurrent : {true, false}) {
        proto::HermesConfig hermes_config;
        hermes_config.interKeyConcurrency = concurrent;
        app::DriverConfig driver = standardDriver(0.2, 0.0, 32);
        driver.measure = 2_ms;
        std::printf("  inter-key=%s:\n", concurrent ? "on " : "off");
        app::DriverResult result = runHermes(hermes_config, driver);
        std::printf("    throughput %.1f MReq/s, write p99 %.1f us\n",
                    result.throughputMops,
                    result.writeLatencyNs.p99() / 1e3);
    }
}

void
ablationLscFree()
{
    printHeader("LSC-free reads (paper section 8): lease-free "
                "linearizable reads vs leased local reads "
                "[uniform, 5% writes]");
    for (bool on : {false, true}) {
        proto::HermesConfig hermes_config;
        hermes_config.lscFreeReads = on;
        app::DriverConfig driver = standardDriver(0.05, 0.0, 32);
        driver.measure = 2_ms;
        std::printf("  lscFree=%s:\n", on ? "on " : "off");
        app::DriverResult result = runHermes(hermes_config, driver);
        std::printf("    read med %.1f us / p99 %.1f us, throughput %.1f "
                    "MReq/s\n",
                    result.readLatencyNs.median() / 1e3,
                    result.readLatencyNs.p99() / 1e3,
                    result.throughputMops);
    }
}

void
ablationBatching()
{
    // Per-peer coalescing (the sim runtime's windows) amortizes the fixed
    // per-message send/recv costs that dominate the broadcast-heavy
    // write path at small values. Sweep the window cap on Hermes and
    // both non-offloaded baselines, with batching off (maxBatchMsgs=0)
    // as the baseline row, and re-verify linearizability on every point:
    // coalescing must never change what the histories admit.
    printHeader("Per-peer batching: write throughput vs window cap "
                "[uniform, 100% writes, 32B values, 5 nodes]");
    printRow({"protocol", "batching", "maxMsgs", "MReq/s", "speedup",
              "linCheck"});
    for (app::Protocol protocol :
         {app::Protocol::Hermes, app::Protocol::Craq,
          app::Protocol::Zab}) {
        double baseline = 0.0;
        for (int max_msgs : {0, 4, 16, 64}) {
            app::ClusterConfig cluster_config =
                standardCluster(protocol, 5);
            cluster_config.cost.maxBatchMsgs = max_msgs;
            app::SimCluster cluster(cluster_config);
            cluster.start();
            app::DriverConfig driver = standardDriver(1.0, 0.0, 160);
            driver.measure = 3_ms;
            driver.quiesceAfter = 2_ms;
            driver.recordHistory = true;
            app::LoadDriver load(cluster, driver);
            app::DriverResult result = load.run();
            app::LinReport lin = app::checkShardedHistory(result.history);
            g_linFailures += !lin.ok();
            if (max_msgs == 0)
                baseline = result.throughputMops;
            printRow({app::protocolName(protocol),
                      max_msgs > 1 ? "on" : "off", fmt(max_msgs, 0),
                      fmt(result.throughputMops),
                      fmt(result.throughputMops
                              / std::max(baseline, 1e-9),
                          2),
                      lin.ok() ? "ok" : "FAIL"});
        }
    }
}

void
ablationZeroCopy()
{
    // The zero-copy value path (refcounted ValueRefs + scatter/gather
    // encode + slab-aliasing decode) eliminates the legacy path's four
    // software copies per hop down to the single memcpy into the KVS
    // entry. The cost model charges those copies per value byte when the
    // path is ablated off (CostModel::zeroCopy = false), so the win
    // scales with the object size — negligible at the paper's 32 B
    // floor, decisive at KiB objects. Every point re-verifies
    // linearizability: aliasing buffers must never change what the
    // histories admit.
    printHeader("Zero-copy value path: write throughput vs value size "
                "[uniform, 100% writes, 5 nodes]");
    printRow({"valueBytes", "zeroCopy", "MReq/s", "speedup", "linCheck"});
    for (size_t value_size : {32u, 128u, 512u, 1024u, 4096u}) {
        double copy_path = 0.0;
        for (bool zero_copy : {false, true}) {
            app::ClusterConfig cluster_config = standardCluster(
                app::Protocol::Hermes, 5, /*max_value=*/4096);
            cluster_config.cost.zeroCopy = zero_copy;
            cluster_config.replica.storeCapacity = 1 << 13;
            app::SimCluster cluster(cluster_config);
            cluster.start();
            app::DriverConfig driver = standardDriver(1.0, 0.0, 160);
            driver.workload.numKeys = 4096; // bound KiB-entry memory
            driver.workload.valueSize = value_size;
            driver.measure = 3_ms;
            driver.quiesceAfter = 2_ms;
            driver.recordHistory = true;
            app::LoadDriver load(cluster, driver);
            app::DriverResult result = load.run();
            app::LinReport lin = app::checkShardedHistory(result.history);
            g_linFailures += !lin.ok();
            if (!zero_copy)
                copy_path = result.throughputMops;
            printRow({fmt(value_size, 0), zero_copy ? "on" : "off",
                      fmt(result.throughputMops),
                      fmt(result.throughputMops
                              / std::max(copy_path, 1e-9),
                          2),
                      lin.ok() ? "ok" : "FAIL"});
        }
    }
}

void
ablationDurability()
{
    // The per-node write-ahead log (store/wal.hh) trades write
    // throughput for crash-restart durability. The sim charges
    // walAppendPerByteNs per logged byte plus one fsyncNs per flush —
    // at-poll-boundary for Group (the group-commit default), per-record
    // for Every. "off" (no walDir) is the paper's in-memory Hermes and
    // the baseline row. Every point re-verifies linearizability:
    // logging must never change what the histories admit.
    printHeader("Durability: WAL fsync policy vs value size "
                "[uniform, 100% writes, 5 nodes]");
    printRow({"valueBytes", "wal", "MReq/s", "slowdown", "linCheck"});
    char wal_root[] = "/tmp/hermes-bench-wal-XXXXXX";
    if (!mkdtemp(wal_root)) {
        std::fprintf(stderr, "  mkdtemp failed; skipping sweep\n");
        return;
    }
    int point = 0;
    for (size_t value_size : {32u, 128u, 512u, 1024u, 4096u}) {
        double in_memory = 0.0;
        struct Policy {
            const char *name;
            bool durable;
            store::FsyncPolicy fsync;
        };
        for (const Policy &policy :
             {Policy{"off", false, store::FsyncPolicy::Never},
              Policy{"group", true, store::FsyncPolicy::Group},
              Policy{"every", true, store::FsyncPolicy::Every}}) {
            app::ClusterConfig cluster_config = standardCluster(
                app::Protocol::Hermes, 5, /*max_value=*/4096);
            if (policy.durable) {
                std::string dir = std::string(wal_root) + "/point"
                                  + std::to_string(point++);
                std::filesystem::create_directories(dir);
                cluster_config.walDir = dir;
                cluster_config.walFsync = policy.fsync;
            }
            cluster_config.replica.storeCapacity = 1 << 13;
            app::SimCluster cluster(cluster_config);
            cluster.start();
            app::DriverConfig driver = standardDriver(1.0, 0.0, 160);
            driver.workload.numKeys = 4096; // bound KiB-entry memory
            driver.workload.valueSize = value_size;
            driver.measure = 3_ms;
            driver.quiesceAfter = 2_ms;
            driver.recordHistory = true;
            app::LoadDriver load(cluster, driver);
            app::DriverResult result = load.run();
            app::LinReport lin = app::checkShardedHistory(result.history);
            g_linFailures += !lin.ok();
            if (!policy.durable)
                in_memory = result.throughputMops;
            printRow({fmt(value_size, 0), policy.name,
                      fmt(result.throughputMops),
                      fmt(in_memory
                              / std::max(result.throughputMops, 1e-9),
                          2),
                      lin.ok() ? "ok" : "FAIL"});
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(wal_root, ec);
}

void
ablationMlt()
{
    printHeader("mlt calibration under 2% message loss "
                "[uniform, 20% writes]");
    for (DurationNs mlt : {30_us, 100_us, 400_us, 2000_us}) {
        proto::HermesConfig hermes_config;
        hermes_config.mlt = mlt;
        app::DriverConfig driver = standardDriver(0.2, 0.0, 16);
        driver.measure = 3_ms;
        std::printf("  mlt=%lluus:\n", (unsigned long long)(mlt / 1000));
        app::DriverResult result = runHermes(hermes_config, driver, 0.02);
        std::printf("    write p99 %.1f us, throughput %.1f MReq/s\n",
                    result.writeLatencyNs.p99() / 1e3,
                    result.throughputMops);
    }
}

} // namespace

int
main()
{
    std::printf("Hermes design-choice ablations (paper §3.1 and §3.3)\n");
    ablationO1();
    ablationO2();
    ablationO3();
    ablationInterKey();
    ablationLscFree();
    ablationBatching();
    ablationZeroCopy();
    ablationDurability();
    ablationMlt();
    if (g_linFailures > 0) {
        std::fprintf(stderr, "%d lin-checked sweep point(s) FAILED\n",
                     g_linFailures);
        return 1;
    }
    return 0;
}
