/**
 * @file
 * SimRuntime: the deterministic simulated cluster every protocol runs on.
 *
 * Each node owns `CostModel::workerThreads` worker servers. All protocol
 * code — message handlers, timer callbacks, client request processing —
 * executes as *jobs* on those workers: a job occupies a worker for its base
 * cost plus the posting cost of every message it sends, and messages depart
 * into the network only when their serialization slot ends. Queueing delay
 * therefore emerges naturally when a node saturates, which is exactly the
 * effect behind the paper's throughput/latency curves (the ZAB leader and
 * the CRAQ tail bottleneck; Hermes stays load-balanced).
 *
 * Sends coalesce per destination, like the TCP loop's per-peer batch
 * frames (Wings' opportunistic batching, §4.2): while a node's job queue
 * is busy its messages wait in per-destination windows; when the queue
 * drains, right after the node's log commits (Env::flush), each window
 * departs as one delivery, in NodeId order, or earlier once it fills a
 * cap. A window of one is a plain send; lone copies of one broadcast
 * depart as that broadcast. Membership traffic (net::isRmMessage) and
 * multicastOffload broadcasts never wait.
 *
 * The runtime is single-threaded and deterministic given a seed.
 */

#ifndef HERMES_SIM_RUNTIME_HH
#define HERMES_SIM_RUNTIME_HH

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "net/env.hh"
#include "sim/cost_model.hh"
#include "sim/event_queue.hh"
#include "sim/network.hh"

namespace hermes::sim
{

/**
 * Simulated cluster runtime: clock, network, per-node CPUs and the Env
 * implementations handed to protocol nodes.
 */
class SimRuntime
{
  public:
    /**
     * @param nodes cluster size
     * @param cost  cost model (copied; stable for the runtime's lifetime)
     * @param seed  master seed; node RNGs and the network derive from it
     */
    SimRuntime(size_t nodes, const CostModel &cost, uint64_t seed);
    ~SimRuntime();

    SimRuntime(const SimRuntime &) = delete;
    SimRuntime &operator=(const SimRuntime &) = delete;

    /** Attach the protocol replica for @p id (non-owning). */
    void attach(NodeId id, net::Node *node);

    /** The Env to construct node @p id 's protocol object with. */
    net::Env &env(NodeId id);

    size_t numNodes() const { return cpus_.size(); }
    EventQueue &events() { return events_; }
    SimNetwork &network() { return network_; }
    const CostModel &cost() const { return cost_; }
    TimeNs now() const { return events_.now(); }

    /** Call start() on every attached node (as a zero-cost job). */
    void start();

    /** Advance the simulation until @p until (absolute ns). */
    void runUntil(TimeNs until) { events_.runUntil(until); }

    /** Advance the simulation by @p d ns. */
    void runFor(DurationNs d) { events_.runUntil(now() + d); }

    /** Drain every runnable event (tests only). */
    void runAll() { events_.runAll(); }

    /**
     * Enqueue a job on @p node 's workers: occupies one worker for
     * @p cpu_cost plus send-posting costs incurred by @p fn. Silently
     * dropped if the node has crashed.
     */
    void submit(NodeId node, DurationNs cpu_cost, std::function<void()> fn);

    /**
     * Crash-stop @p node : pending jobs and coalescing windows are
     * discarded, future messages to and from it vanish, timers never
     * fire. Recovery is restart() with a
     * fresh replica (WAL replay + §3.4 shadow rejoin), or a permanent
     * view change that excludes the node.
     */
    void crash(NodeId node);

    /**
     * Revive a crashed node with an empty CPU and a fresh timer epoch:
     * jobs, timers and worker-release events of the previous incarnation
     * are permanently orphaned (they check the incarnation counter at
     * fire time). The caller then attach()es the replacement replica —
     * crash() detached the old one — and submits its start()/rejoin
     * choreography as jobs. Network links to the node come back up;
     * messages that were in flight across the outage were dropped by the
     * down filter at their delivery time.
     */
    void restart(NodeId node);

    bool alive(NodeId node) const { return cpus_[node].alive; }

    /** Restarts of @p node so far: its current life. */
    uint64_t incarnation(NodeId node) const { return cpus_[node].incarnation; }

    /** Cumulative crash()/restart() counts (explorer coverage signals). */
    uint64_t crashCount() const { return crashes_; }
    uint64_t restartCount() const { return restarts_; }

    /** Cumulative busy worker-nanoseconds (utilization reporting). */
    uint64_t cpuBusyNs(NodeId node) const { return cpus_[node].busyNs; }

    /** Jobs currently queued waiting for a worker (backlog probe). */
    size_t cpuBacklog(NodeId node) const { return cpus_[node].queue.size(); }

  private:
    class NodeEnv;

    struct Job
    {
        DurationNs cost;
        std::function<void()> fn;
    };

    /** Messages held for one destination, and their summed wire size. */
    struct Window
    {
        Group msgs;
        size_t bytes = 0;

        /** Empty the window, returning what it held. */
        Group
        take()
        {
            bytes = 0;
            return std::exchange(msgs, {});
        }
    };

    struct NodeCpu
    {
        std::deque<Job> queue;
        unsigned idleWorkers = 0;
        bool alive = true;
        uint64_t busyNs = 0;
        /** Bumped by restart(); orphans the prior life's queued events. */
        uint64_t incarnation = 0;
        /** Coalescing windows by destination NodeId. */
        std::vector<Window> windows;
    };

    void startJob(NodeId node, TimeNs at);
    void execJob(NodeId node, Job job, TimeNs exec_time);
    void releaseWorker(NodeId node, TimeNs at);

    /** Env::send / Env::broadcast funnel here (only valid inside a job). */
    void sendFromNode(NodeId src, NodeId dst, net::MessagePtr msg);
    void broadcastFromNode(NodeId src, const NodeSet &dsts,
                           net::MessagePtr msg);

    /** Whether @p msg waits in a window rather than departing at once. */
    bool coalesces(const net::Message &msg) const;
    void hold(NodeId src, NodeId dst, net::MessagePtr msg);
    /** Post every window of @p src (the job queue drained). */
    void postWindows(NodeId src);
    /** Post @p group as one delivery, charging its sending job. */
    void post(NodeId src, NodeId dst, Group group);
    void broadcastNow(NodeId src, const NodeSet &dsts, net::MessagePtr msg);

    CostModel cost_;
    EventQueue events_;
    SimNetwork network_;
    std::vector<NodeCpu> cpus_;
    uint64_t crashes_ = 0;
    uint64_t restarts_ = 0;
    std::vector<net::Node *> nodes_;
    std::vector<std::unique_ptr<NodeEnv>> envs_;

    // Context of the job currently executing (single-threaded runtime).
    bool inJob_ = false;
    NodeId jobNode_ = kInvalidNode;
    TimeNs jobExecTime_ = 0;
    DurationNs jobSendAccum_ = 0;
};

} // namespace hermes::sim

#endif // HERMES_SIM_RUNTIME_HH
