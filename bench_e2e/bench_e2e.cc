/**
 * @file
 * bench_e2e: the measured end-to-end benchmark of hermes-kv.
 *
 * One run drives one workload against a ShardedTcpDeployment (S=1, three
 * Hermes replicas, localhost TCP, no injected delay) through the public
 * KvSessionClient API, and measures every layer from outside: it times
 * its own calls into public functions and reads the public stats getters
 * on each replica's loop thread through TcpCluster::runOn. Nothing in the
 * library is instrumented for it.
 *
 *   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace FILE]
 *             [--json FILE] [--wal-dir DIR]
 *
 * Load shape. One generator thread drives 3 sessions from a poll() loop,
 * closed loop at pipeline depth 8, so 24 ops are in flight: each session
 * sends its next op only when a reply frees a slot. The sessions are
 * seeded at different replicas, but KvSessionClient routes every op to
 * the first advertised port of the key's shard, so replica 0 serves all
 * client traffic; the per-replica read shares show it. Latency is timed
 * from the issue call to the completion the generator observes.
 *
 * Placement. The three replica loop threads are pinned to CPUs 0-2 and
 * the generator to CPU 3 (modulo the CPUs the process may use); the
 * durable-restart admin thread shares CPU 2 and is idle between restarts.
 *
 * Set-up. The deployment is started and preloaded with one write per key
 * kSetups times; set-up time is the median, and the last deployment is
 * the one measured. Then the mix warms up for kWarmupOps ops and the
 * window of --seconds is measured. Warm-up is counted in ops, not time,
 * so durable-restart's WAL holds the same records at each restart however
 * fast the run goes.
 *
 * Correctness. Every op on a key divisible by kCheckedKeyStride, preload
 * included, is recorded, and the history is checked with the
 * linearizability checker. Linearizability composes per key, so the check
 * is exact for those keys. An op that does not complete is recorded as
 * pending. A violation, an inconclusive check or any op that does not
 * complete Ok makes the run fail.
 *
 * Tracing. With --trace, spans around the bench's own calls are kept in
 * memory and written as Chrome trace-event JSON at the end, the isolated
 * layer timings run, and the final result line carries the per-layer
 * metrics. Without it, the result line carries the end-to-end metrics.
 *
 * SIGPIPE is ignored, as a server host process must: the replica loops
 * write peer and client sockets with writev()/write() without
 * MSG_NOSIGNAL, so a socket closed while a write is in flight (replica 2's
 * crash in durable-restart) would otherwise kill the whole process
 * instead of surfacing EPIPE to the loop.
 */

#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "app/lin_checker.hh"
#include "app/tcp_service.hh"
#include "app/workload.hh"
#include "common/histogram.hh"
#include "hermes/messages.hh"
#include "span_trace.hh"
#include "store/kvs.hh"
#include "store/wal.hh"

namespace hermes::bench_e2e
{
namespace
{

using app::HistOp;
using app::KvSessionClient;
using net::ClientReplyMsg;

constexpr size_t kReplicas = 3;
constexpr size_t kSessions = 3;
constexpr size_t kDepth = 8;
constexpr int kSetups = 5;
constexpr Key kCheckedKeyStride = 16;
constexpr DurationNs kOpTimeout = 20_s;
constexpr uint64_t kWarmupOps = 100000;
/** 1 in this many ops and generator loop iterations is traced. */
constexpr uint64_t kTraceSampling = 64;
constexpr int kGeneratorTid = 1;
constexpr int kAdminTid = 2;

/** First port of the port lanes; a run takes the first free lane. */
constexpr uint16_t kBasePort = 27000;

/** durable-restart: crash-restarts of replica 2 in the window, each
 *  after this many more completed ops and after the previous rejoin. */
constexpr int kRestarts = 3;
constexpr uint64_t kRestartEveryOps = 30000;
constexpr NodeId kRestartTarget = 2;

struct WorkloadSpec
{
    const char *name;
    /** Key universe; every key is preloaded once. */
    uint64_t keys;
    double writeRatio;
    double zipfTheta;
    size_t valueSize;
    /** WAL on and kRestarts crash-restarts of replica 2. */
    bool durable;
};

/**
 * Why these four. read-mostly is the paper's headline case: local reads
 * dominate and the INV/ACK/VAL broadcast is nearly idle. write-heavy runs
 * the same code with the broadcast, the Batcher and the KVS write path
 * dominating, so a read-path gain that costs writes shows there.
 * hot-keys concentrates writes on few keys, reaching conflict resolution
 * and reads stalled on Invalid keys, the cost side of invalidations that
 * uniform keys never reach. durable-restart is the only mix with values
 * above kZeroCopyThreshold, WAL append, view changes, WAL replay and
 * shadow state transfer.
 */
constexpr WorkloadSpec kWorkloads[] = {
    {"read-mostly", 100000, 0.05, 0.0, 32, false},
    {"write-heavy", 100000, 0.50, 0.0, 32, false},
    {"hot-keys", 100000, 0.20, 0.99, 32, false},
    // 25k keys of 1 KiB: every replica holds the whole data set, and each
    // rejoin replays and transfers it, so 100k keys would put ~1 GiB in
    // one process and keep the three rejoins from fitting in the window.
    {"durable-restart", 25000, 0.50, 0.0, 1024, true},
};

struct Options
{
    const WorkloadSpec *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10;
    std::string traceFile;
    std::string jsonFile;
    std::string walDir = ".bench_build/bench-wal";
};

TimeNs
nowNs()
{
    using namespace std::chrono;
    return duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

DurationNs
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<DurationNs>(ts.tv_sec) * 1000000000ull
           + static_cast<DurationNs>(ts.tv_nsec);
}

DurationNs
processCpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &tv) {
        return static_cast<DurationNs>(tv.tv_sec) * 1000000000ull
               + static_cast<DurationNs>(tv.tv_usec) * 1000ull;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

app::WorkloadConfig
workloadConfig(const WorkloadSpec &spec)
{
    app::WorkloadConfig config;
    config.numKeys = spec.keys;
    config.writeRatio = spec.writeRatio;
    config.zipfTheta = spec.zipfTheta;
    config.scatterKeys = spec.zipfTheta > 0;
    config.valueSize = spec.valueSize;
    return config;
}

// ---------------------------------------------------------------------
// CPU placement and ports
// ---------------------------------------------------------------------

/** CPUs this process may run on, read once before anything is pinned. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Pin the calling thread to the @p slot -th allowed CPU (modulo). */
void
pinCurrentThread(const std::vector<int> &cpus, size_t slot)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[slot % cpus.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

bool
portFree(uint16_t port)
{
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    bool ok = bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
              == 0;
    close(fd);
    return ok;
}

/**
 * First lane of kReplicas free ports at or above @p from: the deployment
 * aborts the process if a port is taken, so another run on the machine
 * must not be able to collide with this one.
 */
uint16_t
freePortLane(uint16_t from)
{
    for (uint16_t base = from; base < from + 4000; base += 8) {
        bool free = true;
        for (size_t r = 0; r < kReplicas && free; ++r)
            free = portFree(static_cast<uint16_t>(base + r));
        if (free)
            return base;
    }
    fatal("no free port lane at or above %u", from);
}

// ---------------------------------------------------------------------
// Per-replica counters, read on each replica's loop thread
// ---------------------------------------------------------------------

enum Counter : size_t
{
    kReads,           ///< HermesStats::readsCompleted
    kReadsStalled,    ///< HermesStats::readsStalled
    kWritesCommitted, ///< HermesStats::writesCommitted
    kValsSkipped,     ///< HermesStats::valsSkipped
    kReplays,         ///< HermesStats::replaysStarted
    kInvRetransmits,  ///< HermesStats::invRetransmits
    kStaged,          ///< BatcherStats::staged
    kBatches,         ///< BatcherStats::batchesFlushed
    kBatchedMsgs,     ///< BatcherStats::messagesBatched
    kWalAppends,      ///< WalStats::appends
    kWalBytes,        ///< WalStats::bytesAppended
    kWalFlushes,      ///< WalStats::flushes
    kLoopCpuNs,       ///< loop thread CPU time
    kLoopVolCsw,      ///< loop thread voluntary context switches
    kNumCounters
};

using Counters = std::array<int64_t, kNumCounters>;

Counters &
operator+=(Counters &a, const Counters &b)
{
    for (size_t i = 0; i < kNumCounters; ++i)
        a[i] += b[i];
    return a;
}

Counters &
operator-=(Counters &a, const Counters &b)
{
    for (size_t i = 0; i < kNumCounters; ++i)
        a[i] -= b[i];
    return a;
}

struct ReplicaProbe
{
    Counters counters{};
    Epoch epoch = 0;
};

ReplicaProbe
probeReplica(app::TcpKvService &group, NodeId id)
{
    ReplicaProbe out;
    group.cluster().runOn(id, [&] {
        app::ReplicaHandle &replica = group.replica(id);
        Counters &c = out.counters;
        const proto::HermesStats &h = replica.hermes()->stats();
        c[kReads] = static_cast<int64_t>(h.readsCompleted);
        c[kReadsStalled] = static_cast<int64_t>(h.readsStalled);
        c[kWritesCommitted] = static_cast<int64_t>(h.writesCommitted);
        c[kValsSkipped] = static_cast<int64_t>(h.valsSkipped);
        c[kReplays] = static_cast<int64_t>(h.replaysStarted);
        c[kInvRetransmits] = static_cast<int64_t>(h.invRetransmits);
        if (const net::Batcher *b = replica.batcher()) {
            c[kStaged] = static_cast<int64_t>(b->stats().staged);
            c[kBatches] = static_cast<int64_t>(b->stats().batchesFlushed);
            c[kBatchedMsgs] =
                static_cast<int64_t>(b->stats().messagesBatched);
        }
        if (const store::Wal *w = replica.wal()) {
            c[kWalAppends] = static_cast<int64_t>(w->stats().appends);
            c[kWalBytes] = static_cast<int64_t>(w->stats().bytesAppended);
            c[kWalFlushes] = static_cast<int64_t>(w->stats().flushes);
        }
        c[kLoopCpuNs] = static_cast<int64_t>(threadCpuNs());
        rusage ru{};
        getrusage(RUSAGE_THREAD, &ru);
        c[kLoopVolCsw] = ru.ru_nvcsw;
        out.epoch = replica.hermes()->view().epoch;
    });
    return out;
}

// ---------------------------------------------------------------------
// Deployment set-up
// ---------------------------------------------------------------------

struct Deployment
{
    std::unique_ptr<app::ShardedTcpDeployment> service;
    std::vector<std::unique_ptr<KvSessionClient>> sessions;

    app::TcpKvService &group() { return service->shard(0); }

    ~Deployment()
    {
        sessions.clear(); // close client sockets before the loops stop
        if (service)
            service->stop();
    }
};

std::unique_ptr<Deployment>
startDeployment(const WorkloadSpec &spec, const Options &opts,
                const std::vector<int> &cpus)
{
    app::ReplicaOptions options;
    options.storeCapacity = 1 << 17;
    options.maxValueSize = std::max<size_t>(spec.valueSize, 64);
    // Wall-clock message-loss timeout: the default is sized for the
    // simulator's microsecond RTTs and would replay healthy writes here.
    options.hermesConfig.mlt = 50_ms;
    // The WAL keeps its default group fsync: one fsync per loop flush.
    if (spec.durable)
        options.wal.path = opts.walDir;
    net::TcpConfig config;
    config.basePort = freePortLane(kBasePort);

    auto d = std::make_unique<Deployment>();
    d->service = std::make_unique<app::ShardedTcpDeployment>(
        app::Protocol::Hermes, 1, kReplicas, options, config);
    d->service->start();
    for (NodeId r = 0; r < kReplicas; ++r)
        d->group().cluster().runOn(r, [&] { pinCurrentThread(cpus, r); });
    // Durable sessions avoid the restart target as their seed; routing
    // sends every op to replica 0 either way.
    const NodeId seeds[kSessions] = {0, 1, spec.durable ? 0u : 2u};
    for (NodeId seed : seeds)
        d->sessions.push_back(std::make_unique<KvSessionClient>(
            d->service->portOf(0, seed)));
    return d;
}

// ---------------------------------------------------------------------
// The closed-loop generator
// ---------------------------------------------------------------------

/**
 * One op kind's latencies in the window, in fixed-memory histograms (raw
 * samples would grow with the op count and show in rss_mb). The p50 is
 * over the whole window; the p99 is the median of the window's 1-second
 * p99s. A second in which the host stalls a vCPU can hold hundreds of ops
 * for milliseconds and move a whole-window p99 tenfold (8.4 ms against
 * 0.3 ms in otherwise alike runs), while it moves the median of ten
 * seconds by one rank.
 */
struct LatencySeries
{
    Histogram window;
    Histogram second;
    std::vector<double> secondP99s;

    void
    record(DurationNs ns)
    {
        window.record(ns);
        second.record(ns);
    }

    /** End the current second. A second with too few ops to leave 10
     *  samples beyond its p99 gives none. */
    void
    closeSecond()
    {
        if (second.count() >= 1000)
            secondP99s.push_back(second.p99() / 1e3);
        second.reset();
    }

    double p50Us() const { return window.median() / 1e3; }

    double
    p99Us() const
    {
        return secondP99s.empty() ? window.p99() / 1e3 : median(secondP99s);
    }
};

/** What the generator measured inside the window. */
struct WindowResult
{
    TimeNs start = 0;
    TimeNs end = 0;
    uint64_t ops = 0;
    LatencySeries reads;
    LatencySeries writes;
    DurationNs issueNs = 0;
    DurationNs recvNs = 0;
    DurationNs pollNs = 0;
    DurationNs generatorCpuNs = 0;
    DurationNs processCpuNs = 0;
    std::vector<ReplicaProbe> probes; ///< end minus start, per replica
    Epoch viewChanges = 0;            ///< epoch delta on replica 0
    uint64_t partialWriteTails = 0;
    uint64_t sessionPauses = 0;
};

class Generator
{
  public:
    Generator(const WorkloadSpec &spec, uint64_t seed, SpanRecorder *trace)
        : workload_(workloadConfig(spec)), rng_(seed), trace_(trace),
          slots_(kSessions), numKeys_(spec.keys), durable_(spec.durable)
    {}

    /** Write every key once, in key order, through @p d 's sessions. */
    void
    preload(Deployment &d)
    {
        nextPreloadKey_ = 0;
        loop(d, /*preload=*/true, 0);
    }

    /** Run the mix: warm up for kWarmupOps ops, measure for @p window,
     *  then drain the ops still in flight. */
    void
    run(Deployment &d, DurationNs window)
    {
        // Reserved address space is not resident until written, so these
        // grow linearly with the ops run instead of in reallocation steps
        // that would show in rss_mb as noise.
        const auto maxOps = kWarmupOps + static_cast<size_t>(
            window / 1e9 * kReserveOpsPerSecond);
        recorded_.reserve(recorded_.size() + maxOps / kCheckedKeyStride);
        if (durable_)
            writeDone_.reserve(maxOps);
        loop(d, /*preload=*/false, window);
    }

    /**
     * Window bookkeeping shared with the admin thread: it reads
     * windowOps() to time restarts, and the window-boundary probes take
     * probeMutex() so they never run while a replica is being replaced.
     */
    uint64_t windowOps() const
    {
        return windowOps_.load(std::memory_order_relaxed);
    }
    std::mutex &probeMutex() { return probeMutex_; }

    /** Counters of replica 2's retired incarnations (admin thread,
     *  under probeMutex). */
    Counters &retired() { return retired_; }

    /** The recorded ops as the checker takes them. */
    app::History
    history() const
    {
        app::History history;
        for (const RecordedOp &r : recorded_) {
            HistOp op;
            op.kind = r.write ? HistOp::Kind::Write : HistOp::Kind::Read;
            op.key = r.key;
            op.invoke = r.invoke;
            op.response = r.response;
            if (r.write)
                op.arg = workload_.makeValue(r.argTag);
            else if (r.resultTag != 0)
                op.result = workload_.makeValue(r.resultTag);
            history.add(std::move(op));
        }
        return history;
    }

    /** Recorded reads whose bytes makeValue() never produces (a read of
     *  a well-formed value no write wrote fails the lin check instead). */
    uint64_t corruptReads() const { return corruptReads_; }
    const WindowResult &window() const { return window_; }
    const std::vector<TimeNs> &writeCompletions() const
    {
        return writeDone_;
    }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    /** Address space reserved for per-op records, sized well above the
     *  fastest run seen; a faster one only pays one reallocation. */
    static constexpr double kReserveOpsPerSecond = 500000;

    struct Slot
    {
        bool busy = false;
        bool write = false;
        bool recorded = false;
        Key key = 0;
        uint64_t argTag = 0;
        uint64_t token = 0;
        uint64_t traceId = 0; ///< 0 = op not sampled
        TimeNs invoke = 0;
    };

    /**
     * One op on a checked key. Values are makeValue(tag), tag 0 being
     * the empty initial value, so a few words per op hold the history
     * and history() rebuilds the values for the checker.
     */
    struct RecordedOp
    {
        Key key;
        uint64_t argTag;
        uint64_t resultTag;
        TimeNs invoke;
        TimeNs response;
        bool write;
    };

    bool inWindow(TimeNs t) const { return t >= winStart_ && t < winEnd_; }

    void
    issue(size_t s, Slot &slot, bool write, Key key)
    {
        KvSessionClient &session = *d_->sessions[s];
        const TimeNs now = nowNs();
        slot.busy = true;
        slot.write = write;
        slot.recorded = key % kCheckedKeyStride == 0;
        slot.key = key;
        slot.argTag = write ? ++tag_ : 0;
        slot.invoke = now;
        slot.token = write ? session.writeAsync(
                                 key, workload_.makeValue(slot.argTag),
                                 kOpTimeout)
                           : session.readAsync(key, kOpTimeout);
        ++attempted_;
        TimeNs issued = nowNs();
        slot.traceId = 0;
        if (inWindow(now)) {
            window_.issueNs += issued - now;
            if (trace_ && sampledOps_++ % kTraceSampling == 0) {
                slot.traceId = (uint64_t{s + 1} << 40) | slot.token;
                trace_->add(Span{"client.issue", 0, slot.traceId,
                                 kGeneratorTid, true, nullptr, now,
                                 issued});
            }
        }
    }

    void
    complete(Slot &slot, const KvSessionClient::OpResult &result,
             TimeNs now)
    {
        bool ok = result.completed
                  && result.status == ClientReplyMsg::Status::Ok;
        ++completed_;
        if (!ok)
            ++failed_;
        if (ok && inWindow(now)) {
            windowOps_.fetch_add(1, std::memory_order_relaxed);
            (slot.write ? window_.writes : window_.reads)
                .record(now - slot.invoke);
        }
        if (ok && slot.write && durable_ && now >= winStart_)
            writeDone_.push_back(now);
        if (slot.recorded) {
            RecordedOp rec{slot.key, slot.argTag, 0, slot.invoke,
                           ok ? now : app::kPendingResponse, slot.write};
            if (ok && !slot.write && !result.value.empty()) {
                rec.resultTag = app::Workload::tagOf(result.value);
                if (result.value != workload_.makeValue(rec.resultTag))
                    ++corruptReads_;
            }
            recorded_.push_back(rec);
        }
        if (slot.traceId != 0)
            trace_->add(Span{"op", slot.traceId, 0, kGeneratorTid, true,
                             slot.write ? "write" : "read", slot.invoke,
                             now});
        slot.busy = false;
    }

    /** Fill every free slot; @return whether anything is in flight. */
    bool
    refill(bool preload, bool issuing)
    {
        bool any = false;
        for (size_t s = 0; s < kSessions; ++s) {
            for (Slot &slot : slots_[s]) {
                if (!slot.busy && issuing) {
                    if (preload) {
                        if (nextPreloadKey_ < numKeys_)
                            issue(s, slot, true, nextPreloadKey_++);
                    } else {
                        app::WorkloadOp op = workload_.next(rng_);
                        issue(s, slot, op.kind != app::WorkloadOp::Kind::Read,
                              op.key);
                    }
                }
                any = any || slot.busy;
            }
        }
        return any;
    }

    /** progress() every session and complete what has answered. */
    void
    harvest()
    {
        for (size_t s = 0; s < kSessions; ++s) {
            KvSessionClient &session = *d_->sessions[s];
            session.progress();
            for (Slot &slot : slots_[s]) {
                if (!slot.busy)
                    continue;
                if (auto result = session.take(slot.token))
                    complete(slot, *result, nowNs());
            }
        }
    }

    void
    loop(Deployment &d, bool preload, DurationNs window)
    {
        d_ = &d;
        winStart_ = winEnd_ = ~TimeNs{0};
        const uint64_t warmedUp = completed_ + kWarmupOps;
        bool started = false, ended = false;
        TimeNs nextSecond = 0;
        std::vector<pollfd> pfds;
        uint64_t iteration = 0;
        for (;;) {
            TimeNs now = nowNs();
            if (!preload && !started && completed_ >= warmedUp) {
                started = true;
                winStart_ = now;
                winEnd_ = now + window;
                nextSecond = now + 1_s;
                onWindowStart(now);
            }
            for (; started && now >= nextSecond && nextSecond < winEnd_;
                 nextSecond += 1_s) {
                window_.reads.closeSecond();
                window_.writes.closeSecond();
            }
            if (started && !ended && now >= winEnd_) {
                ended = true;
                onWindowEnd(now);
            }
            bool issuing = preload ? nextPreloadKey_ < numKeys_ : !ended;
            if (!refill(preload, issuing))
                break;

            pfds.clear();
            for (const auto &session : d.sessions)
                for (int fd : session->fds())
                    pfds.push_back(pollfd{fd, POLLIN, 0});
            TimeNs t0 = nowNs();
            ::poll(pfds.data(), pfds.size(), 1);
            TimeNs t1 = nowNs();
            harvest();
            TimeNs t2 = nowNs();
            if (inWindow(t0)) {
                window_.pollNs += t1 - t0;
                window_.recvNs += t2 - t1;
                if (trace_ && iteration++ % kTraceSampling == 0) {
                    trace_->add(Span{"client.poll_wait", 0, 0, kGeneratorTid,
                                     false, nullptr, t0, t1});
                    trace_->add(Span{"client.progress", 0, 0, kGeneratorTid,
                                     false, nullptr, t1, t2});
                }
            }
        }
        d_ = nullptr;
    }

    /** Every replica's counters, replica 2's retired lives included. */
    std::vector<ReplicaProbe>
    probeAll()
    {
        std::lock_guard<std::mutex> guard(probeMutex_);
        std::vector<ReplicaProbe> out;
        for (NodeId r = 0; r < kReplicas; ++r)
            out.push_back(probeReplica(d_->group(), r));
        out[kRestartTarget].counters += retired_;
        return out;
    }

    void
    onWindowStart(TimeNs now)
    {
        window_.start = now;
        window_.generatorCpuNs = threadCpuNs();
        window_.processCpuNs = processCpuNs();
        window_.partialWriteTails = net::TcpCluster::partialWriteTails();
        window_.sessionPauses = net::TcpCluster::sessionPauses();
        window_.probes = probeAll();
    }

    void
    onWindowEnd(TimeNs now)
    {
        window_.end = now;
        window_.reads.closeSecond();
        window_.writes.closeSecond();
        window_.ops = windowOps();
        window_.generatorCpuNs = threadCpuNs() - window_.generatorCpuNs;
        window_.processCpuNs = processCpuNs() - window_.processCpuNs;
        window_.partialWriteTails =
            net::TcpCluster::partialWriteTails() - window_.partialWriteTails;
        window_.sessionPauses =
            net::TcpCluster::sessionPauses() - window_.sessionPauses;
        std::vector<ReplicaProbe> endProbes = probeAll();
        window_.viewChanges = endProbes[0].epoch - window_.probes[0].epoch;
        for (NodeId r = 0; r < kReplicas; ++r) {
            endProbes[r].counters -= window_.probes[r].counters;
            window_.probes[r] = endProbes[r];
        }
    }

    /** The deployment driven by the loop() in progress, else null. */
    Deployment *d_ = nullptr;
    app::Workload workload_;
    Rng rng_;
    SpanRecorder *trace_;
    std::vector<std::array<Slot, kDepth>> slots_;
    uint64_t numKeys_;
    bool durable_;
    uint64_t tag_ = 0;
    Key nextPreloadKey_ = 0;
    TimeNs winStart_ = 0;
    TimeNs winEnd_ = 0;
    uint64_t sampledOps_ = 0;
    uint64_t attempted_ = 0;
    uint64_t completed_ = 0;
    uint64_t failed_ = 0;
    uint64_t corruptReads_ = 0;
    std::atomic<uint64_t> windowOps_{0};
    std::mutex probeMutex_;
    Counters retired_{};
    std::vector<RecordedOp> recorded_;
    WindowResult window_;
    std::vector<TimeNs> writeDone_;
};

// ---------------------------------------------------------------------
// durable-restart: the admin thread
// ---------------------------------------------------------------------

struct RestartRecord
{
    TimeNs call = 0;
    TimeNs returned = 0;
    TimeNs rejoined = 0;
    uint64_t recordsRecovered = 0;
};

/**
 * Crash-restart replica 2 kRestarts times. Restart k fires once the
 * window has completed k * kRestartEveryOps ops and the previous rejoin
 * has finished, so the WAL size at each restart does not depend on
 * throughput. Stops before the next restart once @p stop is requested.
 */
std::vector<RestartRecord>
runRestarts(Deployment &d, Generator &gen, std::stop_token stop,
            const std::vector<int> &cpus, SpanRecorder *trace)
{
    pinCurrentThread(cpus, kRestartTarget);
    std::vector<RestartRecord> out;
    app::TcpKvService &group = d.group();
    for (uint64_t k = 1; k <= kRestarts; ++k) {
        while (!stop.stop_requested()
               && gen.windowOps() < k * kRestartEveryOps)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (stop.stop_requested())
            break;
        RestartRecord rec;
        {
            std::lock_guard<std::mutex> guard(gen.probeMutex());
            gen.retired() += probeReplica(group, kRestartTarget).counters;
            rec.call = nowNs();
            d.service->restartReplica(0, kRestartTarget);
            rec.returned = nowNs();
            group.cluster().runOn(kRestartTarget, [&] {
                pinCurrentThread(cpus, kRestartTarget);
            });
        }
        const TimeNs deadline = nowNs() + 30_s;
        while (group.replicaIsShadow(kRestartTarget) && nowNs() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        rec.rejoined = nowNs();
        if (rec.rejoined >= deadline)
            fatal("replica %u never left shadow mode", kRestartTarget);
        group.cluster().runOn(kRestartTarget, [&] {
            rec.recordsRecovered =
                group.replica(kRestartTarget).wal()->stats().recordsRecovered;
        });
        if (trace) {
            trace->add(Span{"admin.restart_call", 0, 0, kAdminTid, false,
                            nullptr, rec.call, rec.returned});
            trace->add(Span{"admin.rejoin_sync", 0, 0, kAdminTid, false,
                            nullptr, rec.returned, rec.rejoined});
        }
        out.push_back(rec);
    }
    return out;
}

/** Longest stretch of [call, rejoined] with no completed write. */
DurationNs
longestWriteGap(const std::vector<TimeNs> &done, const RestartRecord &rec)
{
    TimeNs prev = rec.call;
    DurationNs longest = 0;
    auto it = std::upper_bound(done.begin(), done.end(), rec.call);
    for (; it != done.end() && *it < rec.rejoined; ++it) {
        longest = std::max(longest, *it - prev);
        prev = *it;
    }
    return std::max(longest, rec.rejoined - prev);
}

// ---------------------------------------------------------------------
// Isolated layer timings (traced run only)
// ---------------------------------------------------------------------

/** Defeats dead-code elimination of the timed bodies. */
volatile uint64_t gSink = 0;

/**
 * Median over 5 batches of the per-iteration time of @p body, in ns.
 * Each batch is a `micro.*` span in the trace.
 */
template <typename Body>
double
timeBatches(const char *span, size_t iterations, SpanRecorder *trace,
            Body &&body)
{
    std::vector<double> perOp;
    for (int b = 0; b < 5; ++b) {
        TimeNs t0 = nowNs();
        for (size_t i = 0; i < iterations; ++i)
            body(i);
        TimeNs t1 = nowNs();
        perOp.push_back(static_cast<double>(t1 - t0)
                        / static_cast<double>(iterations));
        if (trace)
            trace->add(Span{span, 0, 0, kGeneratorTid, false, nullptr, t0,
                            t1});
    }
    return median(perOp);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; ///< e.g. the sample count behind a percentile
};

/** Codec, KVS and WAL timings on inputs shaped like the workload. */
void
microTimings(const WorkloadSpec &spec, const Options &opts,
             SpanRecorder *trace, std::vector<Metric> &out)
{
    net::registerClientCodecs();
    proto::registerHermesCodecs();
    app::Workload workload(workloadConfig(spec));
    Rng rng(opts.seed);

    // A ring of client requests drawn from the mix.
    constexpr size_t kRing = 1024;
    std::vector<net::ClientRequestMsg> requests(kRing);
    std::vector<std::vector<uint8_t>> encoded(kRing);
    for (size_t i = 0; i < kRing; ++i) {
        app::WorkloadOp op = workload.next(rng);
        net::ClientRequestMsg &req = requests[i];
        req.reqId = i + 1;
        req.key = op.key;
        if (op.kind != app::WorkloadOp::Kind::Read) {
            req.op = net::ClientRequestMsg::Op::Write;
            req.value = workload.makeValue(i + 1);
        }
        net::encodeMessage(req, encoded[i]);
    }
    std::vector<uint8_t> bytes;
    out.push_back({"net.codec.req_encode_ns",
                   timeBatches("micro.req_encode", 200000, trace,
                               [&](size_t i) {
                                   bytes.clear();
                                   net::encodeMessage(requests[i % kRing],
                                                      bytes);
                                   gSink = gSink + bytes.size();
                               }),
                   "ns", ""});
    out.push_back({"net.codec.req_decode_ns",
                   timeBatches("micro.req_decode", 200000, trace,
                               [&](size_t i) {
                                   const auto &b = encoded[i % kRing];
                                   auto msg = net::decodeMessage(b.data(),
                                                                 b.size());
                                   gSink = gSink + (msg != nullptr);
                               }),
                   "ns", ""});

    proto::InvMsg inv;
    inv.key = 42;
    inv.ts = {7, 1};
    inv.value = workload.makeValue(1);
    out.push_back({"net.codec.inv_roundtrip_ns",
                   timeBatches("micro.inv_roundtrip", 200000, trace,
                               [&](size_t) {
                                   bytes.clear();
                                   net::encodeMessage(inv, bytes);
                                   auto msg = net::decodeMessage(
                                       bytes.data(), bytes.size());
                                   gSink = gSink + (msg != nullptr);
                               }),
                   "ns", ""});

    {
        store::KvStore kvs(1 << 17, std::max<size_t>(spec.valueSize, 64));
        Value value = workload.makeValue(1);
        for (Key k = 0; k < spec.keys; ++k)
            kvs.withKey(k, [&](store::KeyRecord &rec) {
                rec.setValue(value);
            });
        std::vector<Key> keys(4096);
        for (Key &k : keys)
            k = workload.nextKey(rng);
        out.push_back({"store.kvs.read_ns",
                       timeBatches("micro.kvs_read", 500000, trace,
                                   [&](size_t i) {
                                       auto r = kvs.read(keys[i % 4096]);
                                       gSink = gSink + r.value.size();
                                   }),
                       "ns", ""});
        out.push_back({"store.kvs.write_ns",
                       timeBatches("micro.kvs_write", 500000, trace,
                                   [&](size_t i) {
                                       kvs.withKey(keys[i % 4096],
                                                   [&](store::KeyRecord &rec) {
                                                       rec.meta().ts.version += 2;
                                                       rec.setValue(value);
                                                   });
                                   }),
                       "ns", ""});
    }

    {
        std::filesystem::create_directories(opts.walDir);
        store::WalConfig config;
        config.path = opts.walDir + "/micro.wal";
        config.fsync = store::FsyncPolicy::Group;
        std::filesystem::remove(config.path);
        store::Wal wal(config);
        ValueRef value(workload.makeValue(1));
        ValueRef kib(Value(1024, 'w'));
        // Per batch: append_ns times 16 rounds of 256 appends, each round
        // then flushed untimed so the queue stays the size a busy loop
        // iteration leaves; group_flush_us times 8 flushes of 16 x 1 KiB
        // records, each a gathered write plus one fsync.
        std::vector<double> appendNs, flushUs;
        for (int b = 0; b < 5; ++b) {
            DurationNs appending = 0, flushing = 0;
            for (int round = 0; round < 16; ++round) {
                TimeNs t0 = nowNs();
                for (Key k = 0; k < 256; ++k)
                    wal.append(k, {2, 1}, 0, value);
                appending += nowNs() - t0;
                wal.flush();
            }
            for (int round = 0; round < 8; ++round) {
                for (Key k = 0; k < 16; ++k)
                    wal.append(k, {2, 1}, 0, kib);
                TimeNs t0 = nowNs();
                wal.flush();
                TimeNs t1 = nowNs();
                flushing += t1 - t0;
                if (trace)
                    trace->add(Span{"micro.wal_group_flush", 0, 0,
                                    kGeneratorTid, false, nullptr, t0, t1});
            }
            appendNs.push_back(appending / (16.0 * 256));
            flushUs.push_back(flushing / 8 / 1e3);
        }
        std::filesystem::remove(config.path);
        out.push_back({"store.wal.append_ns", median(appendNs), "ns", ""});
        out.push_back(
            {"store.wal.group_flush_us", median(flushUs), "us", ""});
    }
}

// ---------------------------------------------------------------------
// Environment facts for --json
// ---------------------------------------------------------------------

/**
 * Return the freed memory of torn-down deployments to the system and
 * restart the VmHWM count from the current resident set, so that rss_mb
 * is the peak of the deployment that follows, not of the allocator's
 * leftovers from the ones before it.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    if (FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** Peak resident set (VmHWM) of this process, in KiB. */
long
peakRssKb()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

std::string
gitSha()
{
    FILE *p = popen("git rev-parse HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {};
    bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
    pclose(p);
    std::string sha = got ? buf : "";
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

/** Filesystem type of @p dir: the WAL's fsync cost depends on it. */
std::string
fsType(const std::string &dir)
{
    struct statfs st{};
    if (statfs(dir.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x794C7630: return "overlayfs";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%lx",
                  static_cast<unsigned long>(st.f_type));
    return buf;
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

std::string
sampleNote(size_t n)
{
    return "n=" + std::to_string(n);
}

/**
 * End-to-end metrics (names, units and bounds: BENCHMARK.json). Only
 * these two hold the bounds the benchmark fixes on a shared host; the
 * window's speed and latency are reported with the per-layer metrics.
 */
std::vector<Metric>
endToEndMetrics(const std::vector<double> &setupS, long rssKb)
{
    std::string setups = "median of";
    for (double s : setupS)
        setups += " " + std::to_string(s).substr(0, 5);
    return {
        {"setup_s", median(setupS), "s", setups},
        {"rss_mb", rssKb / 1024.0, "MiB",
         "VmHWM of the measured deployment's life"},
    };
}

/** Per-layer metrics of the window (names and units: BENCHMARK.json). */
std::vector<Metric>
perLayerMetrics(const WindowResult &w,
                const std::vector<RestartRecord> &restarts,
                const std::vector<TimeNs> &writeDone)
{
    const double wallNs = static_cast<double>(w.end - w.start);
    const double ops = static_cast<double>(w.ops);
    const double clientWrites = static_cast<double>(w.writes.window.count());
    Counters sum{};
    for (const ReplicaProbe &p : w.probes)
        sum += p.counters;
    auto total = [&](Counter c) { return static_cast<double>(sum[c]); };

    auto tailNote = [](const LatencySeries &s) {
        return "median of " + std::to_string(s.secondP99s.size())
               + " 1-second p99s, n=" + std::to_string(s.window.count());
    };
    std::vector<Metric> out = {
        {"throughput_kops", ops / wallNs * 1e6, "kops/s", sampleNote(w.ops)},
        {"read_p50_us", w.reads.p50Us(), "us",
         sampleNote(w.reads.window.count())},
        {"write_p50_us", w.writes.p50Us(), "us",
         sampleNote(w.writes.window.count())},
        {"server_cpu_us_per_op",
         ratio(static_cast<double>(w.processCpuNs - w.generatorCpuNs) / 1e3,
               ops),
         "us/op", "process CPU minus the generator thread's"},
        {"read_p99_us", w.reads.p99Us(), "us", tailNote(w.reads)},
        {"write_p99_us", w.writes.p99Us(), "us", tailNote(w.writes)},
        {"app.client.issue_us_per_op", ratio(w.issueNs / 1e3, ops),
         "us/op", ""},
        {"app.client.recv_us_per_op", ratio(w.recvNs / 1e3, ops), "us/op",
         "progress() plus take()"},
        {"app.client.busy_frac", ratio(w.generatorCpuNs, wallNs), "ratio",
         "generator thread CPU / wall"},
        {"app.client.poll_wait_frac", ratio(w.pollNs, wallNs), "ratio",
         ""},
    };

    std::vector<double> callS, syncS, rejoinS, stallMs;
    for (const RestartRecord &r : restarts) {
        callS.push_back((r.returned - r.call) / 1e9);
        syncS.push_back((r.rejoined - r.returned) / 1e9);
        rejoinS.push_back((r.rejoined - r.call) / 1e9);
        stallMs.push_back(longestWriteGap(writeDone, r) / 1e6);
    }
    std::string restartNote =
        "median of " + std::to_string(restarts.size()) + " restarts";
    out.push_back({"app.restart.call_s", median(callS), "s", restartNote});
    out.push_back({"app.restart.sync_s", median(syncS), "s", restartNote});
    out.push_back({"rejoin_s", median(rejoinS), "s", restartNote});
    out.push_back({"write_stall_ms", median(stallMs), "ms", restartNote});

    for (NodeId r = 0; r < kReplicas; ++r)
        out.push_back({"net.loop.busy_frac.r" + std::to_string(r),
                       ratio(w.probes[r].counters[kLoopCpuNs], wallNs),
                       "ratio", "loop thread CPU / wall"});
    out.push_back({"net.loop.ctxsw_per_op", ratio(total(kLoopVolCsw), ops),
                   "count/op", "voluntary, all loops"});
    out.push_back({"net.batcher.msgs_per_batch",
                   ratio(total(kBatchedMsgs), total(kBatches)), "msgs", ""});
    out.push_back({"net.batcher.proto_msgs_per_write",
                   ratio(total(kStaged), total(kWritesCommitted)), "msgs",
                   "staged / writes committed"});
    out.push_back({"net.partial_write_tails",
                   static_cast<double>(w.partialWriteTails), "count", ""});
    out.push_back({"net.session_pauses",
                   static_cast<double>(w.sessionPauses), "count", ""});

    double shareMax = 0;
    for (NodeId r = 0; r < kReplicas; ++r) {
        double share = ratio(w.probes[r].counters[kReads], total(kReads));
        shareMax = std::max(shareMax, share);
        out.push_back({"hermes.reads_share.r" + std::to_string(r), share,
                       "ratio", "of reads completed"});
    }
    out.push_back({"hermes.reads_share_max", shareMax, "ratio", ""});
    out.push_back({"hermes.read_stall_frac",
                   ratio(total(kReadsStalled), total(kReads)), "ratio",
                   "stalled / completed reads"});
    out.push_back({"hermes.vals_skipped_frac",
                   ratio(total(kValsSkipped), total(kWritesCommitted)),
                   "ratio", "skipped VALs / writes committed"});
    out.push_back({"hermes.replays_started", total(kReplays), "count", ""});
    out.push_back({"hermes.inv_retransmits", total(kInvRetransmits),
                   "count", ""});

    out.push_back({"store.wal.records_per_flush",
                   ratio(total(kWalAppends), total(kWalFlushes)), "records",
                   "group-commit batch"});
    out.push_back({"store.wal.bytes_per_write",
                   ratio(total(kWalBytes), clientWrites), "B",
                   "all replicas, per client write"});
    double recovered = 0;
    for (const RestartRecord &r : restarts)
        recovered += static_cast<double>(r.recordsRecovered);
    out.push_back({"store.wal.records_recovered", recovered, "count",
                   "sum over " + std::to_string(restarts.size())
                       + " restarts"});
    out.push_back({"membership.view_changes",
                   static_cast<double>(w.viewChanges), "count",
                   "epoch delta on replica 0"});
    return out;
}

/** Self time per op of the client spans, from the sampled trace. */
void
traceMetrics(const SpanRecorder &trace, const WindowResult &w,
             std::vector<Metric> &out)
{
    const double ops = static_cast<double>(w.ops);
    auto self = trace.selfTimes();
    // Ops and loop iterations are both sampled 1 in kTraceSampling, so
    // the sampled self time scaled back up is the whole window's.
    auto perOp = [&](const char *name) {
        return ratio(self[name].selfNs / 1e3 * kTraceSampling, ops);
    };
    out.push_back({"trace.op.self_us", ratio(self["op"].selfNs / 1e3,
                                             self["op"].count),
                   "us", "op span minus client.issue"});
    out.push_back({"trace.client.issue.self_us_per_op",
                   perOp("client.issue"), "us/op", ""});
    out.push_back({"trace.client.progress.self_us_per_op",
                   perOp("client.progress"), "us/op", ""});
    out.push_back({"trace.client.poll_wait.self_us_per_op",
                   perOp("client.poll_wait"), "us/op", ""});
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
             + jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

void
printMetrics(const char *layer, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-6s %-40s %14.4f %-8s %s\n", layer, m.name.c_str(),
                    m.value, m.unit.c_str(), m.note.c_str());
}

int
runWorkload(const Options &opts)
{
    const WorkloadSpec &spec = *opts.workload;
    const std::vector<int> cpus = allowedCpus();
    pinCurrentThread(cpus, 3);
    std::unique_ptr<SpanRecorder> trace;
    if (!opts.traceFile.empty())
        trace = std::make_unique<SpanRecorder>();
    std::filesystem::create_directories(opts.walDir);
    const std::string walFs = fsType(opts.walDir);

    std::printf("# bench_e2e workload=%s seed=%llu seconds=%g warmup=%llu ops "
                "traced=%d\n# load: S=1 x %zu Hermes replicas on localhost "
                "TCP, %zu sessions x depth %zu, closed loop, %llu keys, "
                "%zu B values%s\n",
                spec.name, static_cast<unsigned long long>(opts.seed),
                opts.seconds, static_cast<unsigned long long>(kWarmupOps),
                trace != nullptr, kReplicas,
                kSessions, kDepth, static_cast<unsigned long long>(spec.keys),
                spec.valueSize, spec.durable ? ", WAL with group fsync" : "");
    std::fflush(stdout);

    std::vector<double> setupS;
    std::unique_ptr<Generator> gen;
    std::unique_ptr<Deployment> d;
    for (int i = 0; i < kSetups; ++i) {
        gen.reset();
        d.reset();
        std::filesystem::remove_all(opts.walDir);
        resetPeakRss();
        TimeNs t0 = nowNs();
        d = startDeployment(spec, opts, cpus);
        gen = std::make_unique<Generator>(spec, opts.seed, trace.get());
        gen->preload(*d);
        setupS.push_back((nowNs() - t0) / 1e9);
    }

    std::vector<RestartRecord> restarts;
    {
        std::jthread admin;
        if (spec.durable)
            admin = std::jthread([&](std::stop_token stop) {
                restarts = runRestarts(*d, *gen, stop, cpus, trace.get());
            });
        gen->run(*d, static_cast<DurationNs>(opts.seconds * 1e9));
    } // the jthread requests stop and joins here
    const long rssKb = peakRssKb();
    d.reset();

    const WindowResult &w = gen->window();
    std::vector<Metric> e2e = endToEndMetrics(setupS, rssKb);
    std::vector<Metric> layers =
        perLayerMetrics(w, restarts, gen->writeCompletions());

    const TimeNs linStart = nowNs();
    const app::History history = gen->history();
    app::LinReport lin =
        app::checkShardedHistory(history, 1u << 22, app::LinMode::Jit);
    const double linS = (nowNs() - linStart) / 1e9;
    const bool correct = lin.ok() && gen->corruptReads() == 0;

    if (trace) {
        microTimings(spec, opts, trace.get(), layers);
        trace->add(Span{"workload", 0, 0, kGeneratorTid, false, nullptr,
                        w.start, w.end});
        traceMetrics(*trace, w, layers);
        if (!trace->writeChromeJson(opts.traceFile, w.start))
            fatal("cannot write trace file %s", opts.traceFile.c_str());
        std::printf("# trace: %zu spans written to %s\n", trace->size(),
                    opts.traceFile.c_str());
    }
    std::filesystem::remove_all(opts.walDir);

    std::printf("# lin: %s on %zu recorded ops (every key %% %llu == 0), "
                "checked in %.2f s, %llu corrupt reads%s%s\n",
                lin.ok() ? "ok"
                : lin.result == app::LinResult::Violation ? "VIOLATION"
                                                          : "INCONCLUSIVE",
                history.size(),
                static_cast<unsigned long long>(kCheckedKeyStride), linS,
                static_cast<unsigned long long>(gen->corruptReads()),
                lin.detail.empty() ? "" : ": ", lin.detail.c_str());
    std::printf("# ops: attempted=%llu failed=%llu fail_ratio=%g\n",
                static_cast<unsigned long long>(gen->attempted()),
                static_cast<unsigned long long>(gen->failed()),
                ratio(static_cast<double>(gen->failed()),
                      static_cast<double>(gen->attempted())));
    printMetrics("e2e", e2e);
    printMetrics("layer", layers);

    if (!opts.jsonFile.empty()) {
        std::vector<Metric> all = e2e;
        all.insert(all.end(), layers.begin(), layers.end());
        FILE *f = std::fopen(opts.jsonFile.c_str(), "w");
        if (!f)
            fatal("cannot write %s", opts.jsonFile.c_str());
        std::fprintf(
            f,
            "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
            "\"traced\": %s, \"git_sha\": \"%s\", \"nproc\": %ld, "
            "\"wal_fs\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
            "\"failed\": %llu, \"metrics\": %s}\n",
            spec.name, static_cast<unsigned long long>(opts.seed),
            jsonNumber(opts.seconds).c_str(), trace ? "true" : "false",
            gitSha().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
            walFs.c_str(),
            correct ? "true" : "false",
            static_cast<unsigned long long>(gen->attempted()),
            static_cast<unsigned long long>(gen->failed()),
            metricsJson(all).c_str());
        std::fclose(f);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(gen->attempted()),
                static_cast<unsigned long long>(gen->failed()),
                metricsJson(trace ? layers : e2e).c_str());
    // Every workload is chosen so that no op fails: one that does is a
    // failed run, like a wrong answer.
    return correct && gen->failed() == 0 ? 0 : 1;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace FILE] [--json FILE] [--wal-dir DIR]\n"
                 "workloads:",
                 argv0);
    for (const WorkloadSpec &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *value = argv[++i];
        char *rest = nullptr;
        if (arg == "--workload") {
            for (const WorkloadSpec &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    opts.workload = &w;
            if (!opts.workload)
                usage(argv[0]);
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value, &rest, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value, &rest);
        } else if (arg == "--trace") {
            opts.traceFile = value;
        } else if (arg == "--json") {
            opts.jsonFile = value;
        } else if (arg == "--wal-dir") {
            opts.walDir = value;
        } else {
            usage(argv[0]);
        }
        if (rest && *rest != '\0')
            usage(argv[0]);
    }
    if (!opts.workload || !(opts.seconds > 0))
        usage(argv[0]);
    return opts;
}

} // namespace
} // namespace hermes::bench_e2e

int
main(int argc, char **argv)
{
    using namespace hermes::bench_e2e;
    std::signal(SIGPIPE, SIG_IGN);
    return runWorkload(parseOptions(argc, argv));
}
