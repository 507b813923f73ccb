/**
 * @file
 * Session-layer bench over the real TCP stack (not SimCluster): how many
 * concurrent pipelined KvSessionClient sessions one epoll-multiplexed
 * deployment sustains, and what pipelining buys over the synchronous
 * one-op-at-a-time client at equal connection count.
 *
 * Three sections, all against live Hermes shard groups on localhost:
 *
 *  a) Session sweep — {10, 100, 1k, 10k} sessions (clamped to the fd
 *     limit), ~40k mixed ops per point, pipeline depth 8, every point's
 *     shard-tagged history run through the linearizability checker.
 *  b) Pipelined vs sync — 16 pipelined sessions vs 16 blocking KvClient
 *     threads pushing the same mix; the ratio is the pipelining win.
 *  c) Over-drive — server grants 8 credits/session, 64 sessions believe
 *     a huge window and flood 1000 writes each; RSS before/after shows
 *     the overload is memory-bounded (overflow waits in kernel buffers
 *     and the clients' own queues, not in replica heaps).
 */

#include <poll.h>
#include <sys/resource.h>

#include <cstdio>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/lin_checker.hh"
#include "app/tcp_service.hh"
#include "bench_util.hh"
#include "common/random.hh"

namespace hermes
{
namespace
{

using app::HistOp;
using app::History;
using app::KvClient;
using app::KvSessionClient;
using app::Protocol;
using app::ReplicaOptions;
using app::ShardedTcpDeployment;
using app::TcpKvService;
using bench::csvMode;
using bench::fmt;
using bench::printHeader;
using bench::printRow;

// Port lanes clear of the test suites (21xxx/23xxx/24xxx) and of each
// other: the sweep deployment stays up across sections a and b.
constexpr uint16_t kSweepPort = 26000;
constexpr uint16_t kOverdrivePort = 26800;

constexpr size_t kShards = 4;
constexpr size_t kReplicasPerShard = 3;
constexpr size_t kDepth = 8;       // pipeline depth per session
constexpr size_t kOpsPerPoint = 40000;

TimeNs
wallNowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

ReplicaOptions
benchOptions()
{
    ReplicaOptions options;
    options.storeCapacity = 1 << 16;
    options.maxValueSize = 64;
    options.hermesConfig.mlt = 50_ms; // wall-clock timers
    return options;
}

/** Raise RLIMIT_NOFILE to the hard cap and return how many sessions
 *  fit: each costs two in-process fds (client end + accepted end). */
size_t
maxSessionsForFdLimit()
{
    struct rlimit rl = {};
    getrlimit(RLIMIT_NOFILE, &rl);
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
    getrlimit(RLIMIT_NOFILE, &rl);
    if (rl.rlim_cur < 256)
        return 64;
    return (static_cast<size_t>(rl.rlim_cur) - 128) / 2;
}

/** Current resident set in KiB (not the monotonic getrusage peak —
 *  section c needs before/after deltas within one process). */
size_t
currentRssKb()
{
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    long total = 0, resident = 0;
    int got = std::fscanf(f, "%ld %ld", &total, &resident);
    std::fclose(f);
    if (got != 2)
        return 0;
    return static_cast<size_t>(resident) * (sysconf(_SC_PAGESIZE) / 1024);
}

/** Per-shard uniform key pools. Keys are pinned to the issuing session's
 *  seed shard so each session keeps exactly one socket, and the pool is
 *  wide relative to the in-flight op count: the lin checker's state
 *  space is exponential in per-key mutual concurrency. */
std::vector<std::vector<Key>>
buildKeyPools(size_t keys_per_shard, Key first_key)
{
    std::vector<std::vector<Key>> pools(kShards);
    for (Key k = first_key; true; ++k) {
        auto &pool = pools[app::shardOfKey(k, kShards)];
        if (pool.size() < keys_per_shard)
            pool.push_back(k);
        bool full = true;
        for (const auto &p : pools)
            full = full && p.size() >= keys_per_shard;
        if (full)
            break;
    }
    return pools;
}

struct PointResult
{
    size_t ops = 0;
    size_t failures = 0;
    double secs = 0;
    app::LinReport report;
};

const char *
linLabel(const app::LinReport &report)
{
    switch (report.result) {
    case app::LinResult::Ok: return "ok";
    case app::LinResult::Violation: return "VIOLATION";
    case app::LinResult::Inconclusive: return "inconclusive";
    }
    return "?";
}

/**
 * Drive @p n_sessions pipelined sessions to @p total_ops mixed ops
 * (50% read / 40% write / 10% CAS) at depth kDepth, poll()-multiplexed
 * client-side just as the server multiplexes them, and lin-check the
 * merged shard-tagged history.
 */
PointResult
runPipelinedPoint(ShardedTcpDeployment &deployment, size_t n_sessions,
                  size_t total_ops, Key key_base)
{
    // key_base keeps each measurement's key range disjoint from every
    // other run against the shared deployment: the checker assumes
    // genesis initial values, so residue from a previous point would
    // read as a (bogus) violation.
    const size_t keys_per_shard =
        std::max<size_t>(4096, n_sessions * 2);
    auto pools = buildKeyPools(keys_per_shard, key_base);

    std::vector<std::unique_ptr<KvSessionClient>> sessions;
    sessions.reserve(n_sessions);
    for (size_t c = 0; c < n_sessions; ++c)
        sessions.push_back(std::make_unique<KvSessionClient>(
            deployment.portOf(static_cast<uint32_t>(c % kShards))));

    struct Tracked
    {
        uint64_t token;
        HistOp op;
    };
    std::vector<std::deque<Tracked>> outstanding(n_sessions);
    std::vector<size_t> quota(n_sessions, total_ops / n_sessions);
    for (size_t c = 0; c < total_ops % n_sessions; ++c)
        ++quota[c];

    Rng rng(0xBE5C0FFEEull + n_sessions);
    History merged;
    PointResult out;
    size_t done = 0, target = 0;
    for (size_t c = 0; c < n_sessions; ++c)
        target += quota[c];

    auto issueOne = [&](size_t c) {
        KvSessionClient &s = *sessions[c];
        const auto &pool = pools[c % kShards];
        HistOp op;
        op.key = pool[rng.nextBounded(pool.size())];
        op.shard = static_cast<uint32_t>(c % kShards);
        op.invoke = wallNowNs();
        double dice = rng.nextDouble();
        uint64_t token;
        if (dice < 0.5) {
            op.kind = HistOp::Kind::Read;
            token = s.readAsync(op.key, 30_s);
        } else if (dice < 0.9) {
            op.kind = HistOp::Kind::Write;
            Value arg = "b";
            arg.append(std::to_string(rng.next() % 100000));
            op.arg = std::move(arg);
            token = s.writeAsync(op.key, op.arg, 30_s);
        } else {
            op.kind = HistOp::Kind::Cas;
            Value arg = "b";
            arg.append(std::to_string(rng.next() % 100000));
            op.arg = std::move(arg);
            if (rng.nextBool(0.5))
                op.expected = Value{};
            else
                op.expected = "alien-" + std::to_string(rng.next());
            token = s.casAsync(op.key, op.expected, op.arg, 30_s);
        }
        --quota[c];
        outstanding[c].push_back(Tracked{token, std::move(op)});
    };

    auto harvestSession = [&](size_t c) {
        sessions[c]->progress();
        auto &queue = outstanding[c];
        for (auto it = queue.begin(); it != queue.end();) {
            auto result = sessions[c]->take(it->token);
            if (!result) {
                ++it;
                continue;
            }
            ++done;
            if (result->completed
                && result->status == net::ClientReplyMsg::Status::Ok) {
                HistOp op = std::move(it->op);
                op.response = wallNowNs();
                op.result = std::move(result->value);
                op.casApplied = result->casApplied;
                merged.add(std::move(op));
            } else {
                ++out.failures;
            }
            it = queue.erase(it);
        }
        // Refill AFTER the scan: push_back invalidates deque iterators.
        while (quota[c] > 0 && queue.size() < kDepth)
            issueOne(c);
    };

    const TimeNs start = wallNowNs();
    for (size_t c = 0; c < n_sessions; ++c)
        while (quota[c] > 0 && outstanding[c].size() < kDepth)
            issueOne(c);

    std::vector<struct pollfd> pfds;
    std::vector<size_t> owner; // pfds[i] belongs to sessions[owner[i]]
    while (done < target) {
        pfds.clear();
        owner.clear();
        for (size_t c = 0; c < n_sessions; ++c) {
            if (outstanding[c].empty())
                continue;
            for (int fd : sessions[c]->fds()) {
                pfds.push_back({fd, POLLIN, 0});
                owner.push_back(c);
            }
        }
        int ready = ::poll(pfds.data(),
                           static_cast<nfds_t>(pfds.size()), 20);
        if (ready > 0) {
            for (size_t i = 0; i < pfds.size(); ++i)
                if (pfds[i].revents != 0)
                    harvestSession(owner[i]);
        } else {
            // Timeout: sweep everyone so op expiries still surface.
            for (size_t c = 0; c < n_sessions; ++c)
                if (!outstanding[c].empty())
                    harvestSession(c);
        }
    }
    out.secs = (wallNowNs() - start) / 1e9;
    out.ops = done;
    out.report = app::checkShardedHistory(merged);
    return out;
}

/** 16 blocking KvClient threads pushing the same op mix — the baseline
 *  the pipelined sessions are measured against at equal fan-in. */
double
runSyncBaseline(ShardedTcpDeployment &deployment, size_t n_clients,
                size_t total_ops, Key key_base)
{
    auto pools = buildKeyPools(4096, key_base);
    std::vector<std::thread> threads;
    const TimeNs start = wallNowNs();
    for (size_t c = 0; c < n_clients; ++c) {
        threads.emplace_back([&, c] {
            KvClient client(
                deployment.portOf(static_cast<uint32_t>(c % kShards)));
            Rng rng(0x5EC0ull + c);
            const auto &pool = pools[c % kShards];
            size_t my_ops = total_ops / n_clients;
            for (size_t i = 0; i < my_ops; ++i) {
                Key key = pool[rng.nextBounded(pool.size())];
                double dice = rng.nextDouble();
                if (dice < 0.5) {
                    client.read(key, 30_s);
                    continue;
                }
                Value value = "s";
                value.append(std::to_string(rng.next() % 100000));
                if (dice < 0.9)
                    client.write(key, value, 30_s);
                else
                    client.cas(key, Value{}, value, 30_s);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    return (wallNowNs() - start) / 1e9;
}

void
sessionSweep(ShardedTcpDeployment &deployment, size_t max_sessions)
{
    printHeader("bench_sessions a: concurrent-session sweep "
                "(S=4x3 TCP, depth 8, mixed 50r/40w/10c)");
    printRow({"sessions", "ops", "secs", "kops_s", "failures", "lin"});
    Key key_base = 1;
    for (size_t n : {size_t{10}, size_t{100}, size_t{1000},
                     size_t{10000}}) {
        size_t sessions = n;
        if (sessions > max_sessions) {
            std::printf("# %zu sessions clamped to %zu by RLIMIT_NOFILE\n",
                        n, max_sessions);
            sessions = max_sessions;
        }
        PointResult point =
            runPipelinedPoint(deployment, sessions, kOpsPerPoint,
                              key_base);
        key_base += 1000000;
        printRow({std::to_string(sessions), std::to_string(point.ops),
                  fmt(point.secs, 2), fmt(point.ops / point.secs / 1e3, 1),
                  std::to_string(point.failures), linLabel(point.report)});
        if (!point.report.ok())
            std::printf("# lin detail: %s\n",
                        point.report.detail.c_str());
    }
}

void
pipelinedVsSync(ShardedTcpDeployment &deployment)
{
    printHeader("bench_sessions b: pipelined vs sync at 16 connections");
    printRow({"mode", "ops", "secs", "kops_s"});
    constexpr size_t kConns = 16;
    constexpr size_t kOps = 8000;
    double sync_secs =
        runSyncBaseline(deployment, kConns, kOps, 10000001);
    PointResult piped =
        runPipelinedPoint(deployment, kConns, kOps, 11000001);
    printRow({"sync", std::to_string(kOps), fmt(sync_secs, 2),
              fmt(kOps / sync_secs / 1e3, 1)});
    printRow({"pipelined", std::to_string(piped.ops), fmt(piped.secs, 2),
              fmt(piped.ops / piped.secs / 1e3, 1)});
    printRow({"speedup", "", "",
              fmt((piped.ops / piped.secs) / (kOps / sync_secs), 2)});
}

void
overdrive()
{
    printHeader("bench_sessions c: over-drive (8 server credits, "
                "64 sessions x 1000 queued writes)");
    net::TcpConfig config;
    config.basePort = kOverdrivePort;
    config.clientSessionCredits = 8;
    TcpKvService service(Protocol::Hermes, kReplicasPerShard,
                         benchOptions(), config);
    service.start();
    net::TcpCluster::resetSessionStats();

    constexpr size_t kFloodSessions = 64;
    constexpr size_t kFloodOps = 1000;
    size_t rss_before = currentRssKb();
    std::vector<std::unique_ptr<KvSessionClient>> sessions;
    for (size_t c = 0; c < kFloodSessions; ++c) {
        sessions.push_back(
            std::make_unique<KvSessionClient>(service.portOf(0)));
        sessions.back()->overrideWindow(1u << 20);
    }
    const TimeNs start = wallNowNs();
    for (size_t c = 0; c < kFloodSessions; ++c)
        for (size_t i = 0; i < kFloodOps; ++i)
            sessions[c]->writeAsync(1 + (c * kFloodOps + i) % 2048,
                                    "od" + std::to_string(i), 120_s);
    size_t rss_flooded = currentRssKb();
    size_t completed = 0;
    for (auto &s : sessions)
        completed += s->waitAll();
    double secs = (wallNowNs() - start) / 1e9;
    size_t rss_after = currentRssKb();

    printRow({"ops", "completed", "secs", "max_inflight", "rss_before_kb",
              "rss_flooded_kb", "rss_after_kb"});
    printRow({std::to_string(kFloodSessions * kFloodOps),
              std::to_string(completed), fmt(secs, 2),
              std::to_string(net::TcpCluster::maxSessionInflight()),
              std::to_string(rss_before), std::to_string(rss_flooded),
              std::to_string(rss_after)});
    const size_t growth_kb =
        rss_flooded > rss_before ? rss_flooded - rss_before : 0;
    std::printf("# over-drive RSS growth: %zu KiB (%s); server "
                "in-flight ceiling %zu (granted 8)\n",
                growth_kb,
                growth_kb < 128 * 1024 ? "bounded" : "UNBOUNDED?",
                net::TcpCluster::maxSessionInflight());
}

} // namespace
} // namespace hermes

int
main()
{
    using namespace hermes;
    size_t max_sessions = maxSessionsForFdLimit();

    net::TcpConfig config;
    config.basePort = kSweepPort;
    ShardedTcpDeployment deployment(Protocol::Hermes, kShards,
                                    kReplicasPerShard, benchOptions(),
                                    config);
    deployment.start();

    sessionSweep(deployment, max_sessions);
    pipelinedVsSync(deployment);
    deployment.stop();

    overdrive();
    return 0;
}
