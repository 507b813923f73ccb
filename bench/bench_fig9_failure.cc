/**
 * @file
 * Figure 9: HermesKV throughput over time when a replica fails, with the
 * paper's conservative 150ms RM timeout [5 nodes, uniform], at 1/5/20%
 * write ratios.
 *
 * Paper shape to reproduce: throughput collapses almost immediately
 * after the failure (every live node's writes block on the dead node's
 * ACKs and closed-loop sessions pile up behind them); after the failure
 * timeout + lease expiry the survivors agree on an m-update in
 * microseconds; steady-state throughput recovers slightly below the
 * pre-failure level (one replica fewer).
 *
 * The four CPU-side costs are scaled up ~100x here so that 400ms of
 * simulated time stays cheap to simulate (~100x fewer ops). The shape
 * this figure reproduces — the collapse at the crash, recovery after the
 * RM timeout, a slightly lower post-failure level — is set by the
 * timeouts and by relative per-node work, not by the absolute op rate.
 */

#include "bench_util.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

constexpr DurationNs kBucket = 10_ms;
constexpr TimeNs kCrashTime = 100_ms;
constexpr DurationNs kRunTime = 400_ms;

std::vector<double>
timeline(double write_ratio)
{
    app::ClusterConfig cluster_config =
        standardCluster(app::Protocol::Hermes, 5);
    cluster_config.cost.clientOpNs = 6_us;
    cluster_config.cost.kvsOpNs = 7_us;
    cluster_config.cost.recvBaseNs = 14_us;
    cluster_config.cost.sendBaseNs = 9_us;
    cluster_config.replica.enableRm = true;
    cluster_config.replica.rmConfig.failureTimeout = 150_ms; // the paper's
    cluster_config.replica.rmConfig.heartbeatInterval = 5_ms;
    cluster_config.replica.rmConfig.leaseDuration = 20_ms;
    cluster_config.replica.hermesConfig.mlt = 5_ms;
    app::SimCluster cluster(cluster_config);
    cluster.start();
    cluster.runtime().events().scheduleAt(kCrashTime,
                                          [&cluster] { cluster.crash(4); });

    app::DriverConfig driver_config;
    driver_config.workload.numKeys = 10000;
    driver_config.workload.writeRatio = write_ratio;
    driver_config.sessionsPerNode = 24;
    driver_config.warmup = 0;
    driver_config.measure = kRunTime;
    driver_config.timelineBucket = kBucket;
    app::LoadDriver driver(cluster, driver_config);
    return driver.run().timelineMops;
}

} // namespace

int
main()
{
    std::printf("Figure 9: HermesKV under failure "
                "[5 nodes, uniform, crash at t=100ms, timeout=150ms]\n"
                "throughput per 10ms bucket (MReq/s); crash marked '<<'\n");
    std::vector<std::vector<double>> lines;
    for (double ratio : {0.01, 0.05, 0.20})
        lines.push_back(timeline(ratio));

    printRow({"t(ms)", "1% writes", "5% writes", "20% writes"});
    for (size_t bucket = 0; bucket + 1 < lines[0].size(); ++bucket) {
        TimeNs t = bucket * kBucket;
        std::string marker =
            (t <= kCrashTime && kCrashTime < t + kBucket) ? "  <<" : "";
        printRow({std::to_string(t / 1_ms) + marker, fmt(lines[0][bucket]),
                  fmt(lines[1][bucket]), fmt(lines[2][bucket])});
    }

    // Summary: pre-failure level, blocked level, recovered level.
    printHeader("summary (MReq/s)");
    printRow({"write%", "before", "during-block", "recovered"});
    const double ratios[3] = {1, 5, 20};
    for (size_t i = 0; i < lines.size(); ++i) {
        auto avg = [&](size_t from_ms, size_t to_ms) {
            double sum = 0;
            size_t count = 0;
            for (size_t b = from_ms / 10; b < to_ms / 10
                                          && b < lines[i].size();
                 ++b, ++count)
                sum += lines[i][b];
            return count ? sum / count : 0.0;
        };
        printRow({fmt(ratios[i], 0), fmt(avg(40, 100)),
                  fmt(avg(120, 240)), fmt(avg(320, 400))});
    }
    return 0;
}
