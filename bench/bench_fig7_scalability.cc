/**
 * @file
 * Figure 7: scalability with the replication degree (3, 5, 7 nodes) at
 * 1% and 20% write ratios, uniform traffic.
 *
 * Paper shape to reproduce: Hermes scales near-linearly at 1% writes and
 * keeps its lead at 20%; CRAQ's longer chain loads the tail (its 20%
 * throughput degrades from 5 to 7 nodes); ZAB gains read capacity but
 * its leader chokes at 20% writes as the replica count grows.
 *
 * Beyond the paper: scale-out with sharded key-space partitioning. One
 * replica group's throughput caps at one group's worth of CPUs no matter
 * the protocol; the second sweep fixes the replication degree at 3 and
 * grows the shard count S = 1, 2, 4, 8 (each shard an independent
 * group), reporting *aggregate* throughput. Every protocol scales
 * near-linearly — sharding composes with, rather than competes against,
 * the intra-group protocol — which is what lets HermesKV serve traffic
 * far past a single group.
 *
 * Part c is the real-deployment twin of part b: the same S = 1, 2, 4, 8
 * sweep against ShardedTcpDeployment — S per-shard Hermes groups over
 * real localhost sockets, one event-loop thread per replica — driven by
 * 4 synchronous KvClient threads per shard (weak scaling). Every point
 * records a shard-tagged history and is linearizability-checked before
 * its throughput is reported; a cell reads "LINFAIL" if the check ever
 * rejects. Aggregate scaling here is bounded by the host's cores (the
 * sim sweep charges modelled costs; this one spends real CPU), so the
 * sweep prints the core count next to the numbers.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include "app/lin_checker.hh"
#include "app/tcp_service.hh"
#include "bench_util.hh"
#include "common/random.hh"

using namespace hermes;
using namespace hermes::bench;

namespace
{

/** One TCP sweep point: aggregate client-visible MReq/s, lin-checked. */
struct TcpPoint
{
    double mops = 0.0;
    size_t measuredOps = 0;
    bool linOk = false;
    size_t failures = 0;
};

TimeNs
wallNowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Stand up S Hermes groups of 3 replicas on real sockets and drive them
 * with 4 blocking KvClient threads per shard (uniform keys, 5% writes,
 * 32B values) for @p warmup + @p measure. The whole recorded history
 * (warmup included — a measured read may observe a warmup write) is
 * shard-tagged and checked; throughput counts only ops completing inside
 * the measure window.
 */
TcpPoint
runTcpShardedPoint(size_t shards, uint16_t base_port,
                   DurationNs warmup = 200_ms, DurationNs measure = 1_s)
{
    app::ReplicaOptions options;
    options.storeCapacity = 1 << 14;
    options.maxValueSize = 64;
    options.hermesConfig.mlt = 50_ms; // wall-clock timers
    net::TcpConfig config;
    config.basePort = base_port;
    app::ShardedTcpDeployment deployment(app::Protocol::Hermes, shards, 3,
                                         options, config);
    deployment.start();

    constexpr int kClientsPerShard = 4;
    constexpr Key kKeySpace = 4096;
    const int clients = static_cast<int>(shards) * kClientsPerShard;
    std::vector<app::History> histories(clients);
    std::vector<size_t> measured(clients, 0);
    std::atomic<size_t> failures{0};
    const TimeNs t_measure = wallNowNs() + warmup;
    const TimeNs t_end = t_measure + measure;

    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            app::KvClient client(
                deployment.portOf(c % shards, c % 3));
            Rng rng(0xF167'0000 + c);
            for (;;) {
                app::HistOp op;
                op.key = 1 + rng.nextBounded(kKeySpace);
                op.shard = app::shardOfKey(op.key, shards);
                op.invoke = wallNowNs();
                if (op.invoke >= t_end)
                    break;
                bool completed = false;
                if (rng.nextDouble() < 0.05) {
                    op.kind = app::HistOp::Kind::Write;
                    Value arg = "s";
                    arg.append(std::to_string(shards))
                        .append("c")
                        .append(std::to_string(c))
                        .append("-")
                        .append(std::to_string(histories[c].size()));
                    op.arg = std::move(arg);
                    completed = client.write(op.key, op.arg, 20_s);
                } else {
                    op.kind = app::HistOp::Kind::Read;
                    auto got = client.read(op.key, 20_s);
                    completed = got.has_value();
                    if (completed)
                        op.result = *got;
                }
                op.response = wallNowNs();
                if (!completed) {
                    ++failures;
                    continue;
                }
                if (op.response >= t_measure && op.response < t_end)
                    ++measured[c];
                histories[c].add(std::move(op));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    deployment.stop();

    app::History merged;
    for (const app::History &h : histories)
        for (const app::HistOp &op : h.ops())
            merged.add(op);

    TcpPoint point;
    point.failures = failures.load();
    for (size_t n : measured)
        point.measuredOps += n;
    point.mops = point.measuredOps / (measure / 1e9) / 1e6;
    point.linOk = app::checkShardedHistory(merged).ok();
    return point;
}

} // namespace

int
main()
{
    std::printf("Figure 7: throughput (MReq/s) vs replication degree "
                "[uniform, 32B values]\n");
    for (double ratio : {0.01, 0.20}) {
        printHeader(("write ratio " + fmt(ratio * 100, 0) + "%").c_str());
        printRow({"protocol", "3 nodes", "5 nodes", "7 nodes"});
        for (app::Protocol protocol :
             {app::Protocol::Hermes, app::Protocol::Craq,
              app::Protocol::Zab}) {
            std::vector<std::string> row{app::protocolName(protocol)};
            for (size_t nodes : {3, 5, 7}) {
                app::DriverConfig driver = standardDriver(ratio);
                row.push_back(
                    fmt(runPoint(protocol, nodes, driver).throughputMops));
            }
            printRow(row);
        }
    }

    std::printf("\nFigure 7b: aggregate throughput (MReq/s) vs shard "
                "count [3 replicas/shard, 5%% writes, uniform, 32B]\n");
    printHeader("scale-out via sharded key-space partitioning");
    printRow({"protocol", "S=1", "S=2", "S=4", "S=8", "x(S=4/S=1)"});
    for (app::Protocol protocol : app::allProtocols()) {
        if (!app::traitsOf(protocol).shardable)
            continue;
        std::vector<std::string> row{app::protocolName(protocol)};
        double base = 0.0;
        double at4 = 0.0;
        for (size_t shards : {1, 2, 4, 8}) {
            app::DriverConfig driver = standardDriver(0.05);
            double mops =
                runShardedPoint(protocol, shards, 3, driver).throughputMops;
            if (shards == 1)
                base = mops;
            if (shards == 4)
                at4 = mops;
            row.push_back(fmt(mops));
        }
        row.push_back(base > 0 ? fmt(at4 / base) : "n/a");
        printRow(row);
    }

    std::printf("\nFigure 7c: real-deployment twin — aggregate TCP "
                "throughput (MReq/s) vs shard count\n[Hermes, 3 "
                "replicas/shard, 4 clients/shard, 5%% writes, uniform, "
                "32B; every point lin-checked; host cores: %u]\n",
                std::thread::hardware_concurrency());
    printHeader("scale-out over real sockets (ShardedTcpDeployment)");
    printRow({"protocol", "S=1", "S=2", "S=4", "S=8", "x(S=4/S=1)"});
    {
        std::vector<std::string> row{"hermes-tcp"};
        double base = 0.0;
        double at4 = 0.0;
        uint16_t port = 24000;
        for (size_t shards : {1, 2, 4, 8}) {
            TcpPoint point = runTcpShardedPoint(shards, port);
            port = static_cast<uint16_t>(port + 64);
            if (!point.linOk || point.failures != 0) {
                row.push_back(point.linOk ? "OPFAIL" : "LINFAIL");
                continue;
            }
            if (shards == 1)
                base = point.mops;
            if (shards == 4)
                at4 = point.mops;
            row.push_back(fmt(point.mops, 3));
        }
        row.push_back(base > 0 ? fmt(at4 / base) : "n/a");
        printRow(row);
    }
    return 0;
}
