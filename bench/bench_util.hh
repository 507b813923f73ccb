/**
 * @file
 * Shared plumbing of the figure/table benchmarks: the calibrated cost
 * model, standard cluster/driver builders, and paper-style table output.
 *
 * Absolute magnitudes are predictions of the hand-set cost model
 * (paperCostModel below), not measurements; what these harnesses are
 * built to reproduce is the *shape* of each figure: protocol ordering,
 * relative factors, crossover points. Each binary's header states the
 * paper shape it targets.
 */

#ifndef HERMES_BENCH_BENCH_UTIL_HH
#define HERMES_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "app/cluster.hh"
#include "app/driver.hh"
#include "app/protocols.hh"

namespace hermes::bench
{

/** The shared simulated-testbed calibration (paper §5.2's machines). */
inline sim::CostModel
paperCostModel()
{
    sim::CostModel cost; // defaults are the calibrated values
    return cost;
}

/** Cluster of @p protocol with the standard bench store sizing. */
inline app::ClusterConfig
standardCluster(app::Protocol protocol, size_t nodes,
                size_t max_value = 64, size_t shards = 1)
{
    app::ClusterConfig config;
    config.protocol = protocol;
    config.nodes = nodes;
    config.shards = shards;
    config.cost = paperCostModel();
    // The paper gives rZAB RDMA multicast for its leader-heavy traffic.
    config.cost.multicastOffload = protocol == app::Protocol::Zab;
    config.replica.storeCapacity = 1 << 17;
    config.replica.maxValueSize = max_value;
    return config;
}

/** Standard measurement windows: short but with millions of samples. */
inline app::DriverConfig
standardDriver(double write_ratio, double zipf_theta = 0.0,
               size_t sessions_per_node = 160)
{
    app::DriverConfig config;
    config.workload.numKeys = 100000; // paper: 1M (scaled with the window)
    config.workload.writeRatio = write_ratio;
    config.workload.zipfTheta = zipf_theta;
    config.workload.valueSize = 32;
    config.sessionsPerNode = sessions_per_node;
    config.warmup = 1_ms;
    config.measure = 4_ms;
    return config;
}

/** Run one sharded point: @p shards groups of @p replicas each. */
inline app::DriverResult
runShardedPoint(app::Protocol protocol, size_t shards, size_t replicas,
                const app::DriverConfig &driver_config, uint64_t seed = 1)
{
    app::ClusterConfig cluster_config =
        standardCluster(protocol, replicas, 64, shards);
    cluster_config.seed = seed;
    app::SimCluster cluster(cluster_config);
    cluster.start();
    app::LoadDriver driver(cluster, driver_config);
    return driver.run();
}

/** Run one (protocol, workload) point and return the measurements. */
inline app::DriverResult
runPoint(app::Protocol protocol, size_t nodes,
         const app::DriverConfig &driver_config, uint64_t seed = 1)
{
    return runShardedPoint(protocol, 1, nodes, driver_config, seed);
}

// ---- Table printing ----

/**
 * CSV mode: when HERMES_BENCH_CSV is set, rows come out comma-separated
 * and headers as '#' comment lines, so the nightly CI job can archive
 * the figures as machine-diffable CSV artifacts.
 */
inline bool
csvMode()
{
    return std::getenv("HERMES_BENCH_CSV") != nullptr;
}

inline void
printHeader(const std::string &title)
{
    if (csvMode())
        std::printf("\n# %s\n", title.c_str());
    else
        std::printf("\n=== %s ===\n", title.c_str());
}

inline void
printRow(const std::vector<std::string> &cells, int width = 14)
{
    if (csvMode()) {
        for (size_t i = 0; i < cells.size(); ++i)
            std::printf("%s%s", i ? "," : "", cells[i].c_str());
        std::printf("\n");
        return;
    }
    for (const std::string &cell : cells)
        std::printf("%-*s", width, cell.c_str());
    std::printf("\n");
}

inline std::string
fmt(double v, int precision = 1)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string
fmtUs(uint64_t ns)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", ns / 1e3);
    return buf;
}

} // namespace hermes::bench

#endif // HERMES_BENCH_BENCH_UTIL_HH
