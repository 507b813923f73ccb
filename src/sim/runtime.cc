#include "sim/runtime.hh"

#include "common/logging.hh"

namespace hermes::sim
{

namespace
{

/** Value payload bytes a group carries (the copy charges' input). */
size_t
valueBytes(const Group &group)
{
    size_t bytes = 0;
    for (const net::MessagePtr &msg : group)
        bytes += msg->valueBytes();
    return bytes;
}

} // namespace

/**
 * Env implementation backing one simulated node. Sends are only legal from
 * inside a job on the owning node (all protocol code runs as jobs); timers
 * re-enter through submit() so their callbacks are jobs too.
 */
class SimRuntime::NodeEnv : public net::Env
{
  public:
    NodeEnv(SimRuntime &rt, NodeId id, uint64_t seed)
        : rt_(rt), id_(id), rng_(seed)
    {}

    NodeId self() const override { return id_; }
    TimeNs now() const override { return rt_.events_.now(); }

    void
    send(NodeId dst, net::MessagePtr msg) override
    {
        rt_.sendFromNode(id_, dst, std::move(msg));
    }

    void
    broadcast(const NodeSet &dsts, net::MessagePtr msg) override
    {
        rt_.broadcastFromNode(id_, dsts, std::move(msg));
    }

    net::TimerId
    setTimer(DurationNs after, std::function<void()> fn) override
    {
        // Timers belong to the node incarnation that armed them: after a
        // crash-restart the old engine is destroyed, and a stale timer
        // firing into the fresh one would be a use-after-free in spirit
        // (and, for captured engine pointers, in fact). The epoch check
        // drops them; while merely crashed, submit() drops them anyway.
        return rt_.events_.scheduleAfter(
            after, [this, fn = std::move(fn), epoch = epoch_] {
                if (epoch == epoch_)
                    rt_.submit(id_, 0, fn);
            });
    }

    /** Invalidate every timer armed by the previous incarnation. */
    void bumpEpoch() { ++epoch_; }

    void cancelTimer(net::TimerId id) override { rt_.events_.cancel(id); }

    Rng &rng() override { return rng_; }

    void
    chargeStoreAccess(unsigned count) override
    {
        hermes_assert(rt_.inJob_ && rt_.jobNode_ == id_);
        rt_.jobSendAccum_ += count * rt_.cost_.kvsOpNs;
    }

    void
    chargeCpu(DurationNs ns) override
    {
        hermes_assert(rt_.inJob_ && rt_.jobNode_ == id_);
        rt_.jobSendAccum_ += ns;
    }

  private:
    SimRuntime &rt_;
    NodeId id_;
    Rng rng_;
    uint64_t epoch_ = 0;
};

SimRuntime::SimRuntime(size_t nodes, const CostModel &cost, uint64_t seed)
    : cost_(cost),
      network_(events_, cost_, nodes, mix64(seed ^ 0x4E4554574F524Bull)),
      cpus_(nodes),
      nodes_(nodes, nullptr)
{
    for (size_t i = 0; i < nodes; ++i) {
        cpus_[i].idleWorkers = cost_.workerThreads;
        envs_.push_back(std::make_unique<NodeEnv>(
            *this, static_cast<NodeId>(i), mix64(seed + 1 + i)));
    }
    for (NodeCpu &cpu : cpus_)
        cpu.windows.resize(nodes);
    network_.setDeliverFn([this](NodeId dst, Group group) {
        // One delivery is one receive job: a coalesced group pays one
        // base receive cost plus a per-message marginal — the
        // receive-side half of the doorbell amortization (§4.2).
        DurationNs svc =
            cost_.batchedRecvCost(groupWireSize(group), group.size())
            + cost_.recvCopyCost(valueBytes(group));
        submit(dst, svc, [this, dst, group = std::move(group)] {
            for (const net::MessagePtr &msg : group) {
                if (nodes_[dst])
                    nodes_[dst]->onMessage(msg);
            }
        });
    });
}

SimRuntime::~SimRuntime() = default;

void
SimRuntime::attach(NodeId id, net::Node *node)
{
    hermes_assert(id < nodes_.size());
    nodes_[id] = node;
}

net::Env &
SimRuntime::env(NodeId id)
{
    hermes_assert(id < envs_.size());
    return *envs_[id];
}

void
SimRuntime::start()
{
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i]) {
            submit(static_cast<NodeId>(i), 0,
                   [node = nodes_[i]] { node->start(); });
        }
    }
}

void
SimRuntime::submit(NodeId node, DurationNs cpu_cost, std::function<void()> fn)
{
    hermes_assert(node < cpus_.size());
    NodeCpu &cpu = cpus_[node];
    if (!cpu.alive)
        return;
    cpu.queue.push_back(Job{cpu_cost, std::move(fn)});
    if (cpu.idleWorkers > 0) {
        --cpu.idleWorkers;
        startJob(node, events_.now());
    }
}

void
SimRuntime::startJob(NodeId node, TimeNs at)
{
    NodeCpu &cpu = cpus_[node];
    hermes_assert(!cpu.queue.empty());
    Job job = std::move(cpu.queue.front());
    cpu.queue.pop_front();
    TimeNs exec_at = at + job.cost;
    // The incarnation check (not just `alive`) keeps a pre-crash job's
    // execution event from running into a restarted node: restart flips
    // alive back to true, the incarnation counter never goes back.
    events_.scheduleAt(exec_at, [this, node, job = std::move(job), exec_at,
                                 inc = cpu.incarnation]() mutable {
        if (cpus_[node].incarnation == inc)
            execJob(node, std::move(job), exec_at);
    });
}

void
SimRuntime::execJob(NodeId node, Job job, TimeNs exec_time)
{
    NodeCpu &cpu = cpus_[node];
    if (!cpu.alive)
        return;

    hermes_assert(!inJob_);
    inJob_ = true;
    jobNode_ = node;
    jobExecTime_ = exec_time;
    jobSendAccum_ = 0;

    job.fn();

    // Poll-end analogue of the simulated worker: when no further job is
    // queued this busy burst is over, so the node's log commits and then
    // its windows depart (their posting costs extend this job's
    // occupancy, below). While jobs remain queued the windows stay open
    // and keep filling — bounded by the caps — which is exactly the
    // opportunistic policy: batch under load, never stall an idle node
    // to fill a batch.
    if (cpu.queue.empty()) {
        envs_[node]->flush();
        postWindows(node);
    }

    inJob_ = false;
    DurationNs send_extra = jobSendAccum_;
    cpu.busyNs += job.cost + send_extra;

    if (send_extra == 0) {
        releaseWorker(node, exec_time);
    } else {
        events_.scheduleAt(exec_time + send_extra,
                           [this, node, inc = cpu.incarnation] {
                               if (cpus_[node].incarnation == inc)
                                   releaseWorker(node, events_.now());
                           });
    }
}

void
SimRuntime::releaseWorker(NodeId node, TimeNs at)
{
    NodeCpu &cpu = cpus_[node];
    if (!cpu.alive)
        return;
    if (!cpu.queue.empty()) {
        startJob(node, at);
    } else {
        ++cpu.idleWorkers;
    }
}

void
SimRuntime::sendFromNode(NodeId src, NodeId dst, net::MessagePtr msg)
{
    hermes_assert(inJob_ && jobNode_ == src);
    const_cast<net::Message &>(*msg).src = src;
    if (coalesces(*msg))
        hold(src, dst, std::move(msg));
    else
        post(src, dst, Group{std::move(msg)});
}

void
SimRuntime::broadcastFromNode(NodeId src, const NodeSet &dsts,
                              net::MessagePtr msg)
{
    hermes_assert(inJob_ && jobNode_ == src);
    const_cast<net::Message &>(*msg).src = src;
    if (!coalesces(*msg) || cost_.multicastOffload) {
        broadcastNow(src, dsts, std::move(msg));
        return;
    }
    for (NodeId dst : dsts) {
        if (dst != src)
            hold(src, dst, msg);
    }
}

bool
SimRuntime::coalesces(const net::Message &msg) const
{
    return cost_.maxBatchMsgs > 1 && cost_.maxBatchBytes > 0
           && !net::isRmMessage(msg.type());
}

void
SimRuntime::hold(NodeId src, NodeId dst, net::MessagePtr msg)
{
    NodeCpu &cpu = cpus_[src];
    hermes_assert(dst < cpu.windows.size());
    Window &window = cpu.windows[dst];
    window.bytes += msg->wireSize();
    window.msgs.push_back(std::move(msg));
    // A full window departs at once, so one hot peer can neither grow an
    // unbounded group nor delay its own traffic past the cap.
    if (static_cast<int>(window.msgs.size()) >= cost_.maxBatchMsgs
            || static_cast<long>(window.bytes) >= cost_.maxBatchBytes)
        post(src, dst, window.take());
}

void
SimRuntime::postWindows(NodeId src)
{
    std::vector<Window> &windows = cpus_[src].windows;
    for (NodeId dst = 0; dst < windows.size(); ++dst) {
        Group msgs = windows[dst].take();
        if (msgs.size() == 1) {
            // Lone copies of one broadcast depart as that broadcast
            // again, keeping its shared-payload fan-out when no window
            // filled up (the idle-cluster case).
            NodeSet fused{dst};
            for (NodeId peer = dst + 1; peer < windows.size(); ++peer) {
                const Group &other = windows[peer].msgs;
                if (other.size() == 1 && other.front() == msgs.front()) {
                    fused.push_back(peer);
                    windows[peer].take();
                }
            }
            if (fused.size() > 1) {
                broadcastNow(src, fused, std::move(msgs.front()));
                continue;
            }
        }
        if (!msgs.empty())
            post(src, dst, std::move(msgs));
    }
}

void
SimRuntime::post(NodeId src, NodeId dst, Group group)
{
    // The group occupies the sender's worker for its posting cost — one
    // doorbell plus a per-message marginal — and departs when its
    // serialization slot ends.
    jobSendAccum_ +=
        cost_.batchedSendCost(groupWireSize(group), group.size())
        + cost_.sendCopyCost(valueBytes(group));
    network_.send(src, dst, std::move(group), jobExecTime_ + jobSendAccum_);
}

void
SimRuntime::broadcastNow(NodeId src, const NodeSet &dsts,
                         net::MessagePtr msg)
{
    size_t fanout = 0;
    for (NodeId dst : dsts)
        fanout += dst != src;
    if (fanout == 0)
        return;
    // One shared encode per broadcast payload: the copy charge (when
    // the zero-copy path is ablated off) is paid once, not per copy.
    jobSendAccum_ += cost_.broadcastCost(msg->wireSize(), fanout)
                     + cost_.sendCopyCost(msg->valueBytes());
    TimeNs depart = jobExecTime_ + jobSendAccum_;
    for (NodeId dst : dsts) {
        if (dst != src)
            network_.send(src, dst, msg, depart);
    }
}

void
SimRuntime::crash(NodeId node)
{
    hermes_assert(node < cpus_.size());
    NodeCpu &cpu = cpus_[node];
    if (!cpu.alive)
        return;
    cpu.alive = false;
    cpu.queue.clear();
    cpu.idleWorkers = 0;
    // Staged messages die unsent: a crashed node's traffic is lost.
    for (Window &window : cpu.windows)
        window.take();
    ++crashes_;
    nodes_[node] = nullptr; // the handle is typically destroyed next
    network_.setNodeDown(node, true);
    LOG_INFO("node %u crashed at %llu ns", node,
             static_cast<unsigned long long>(events_.now()));
}

void
SimRuntime::restart(NodeId node)
{
    hermes_assert(node < cpus_.size());
    NodeCpu &cpu = cpus_[node];
    hermes_assert(!cpu.alive);
    ++cpu.incarnation;        // orphan pre-crash exec/release events
    envs_[node]->bumpEpoch(); // orphan pre-crash timers
    cpu.alive = true;
    cpu.queue.clear();
    cpu.idleWorkers = cost_.workerThreads;
    ++restarts_;
    network_.setNodeDown(node, false);
    LOG_INFO("node %u restarted at %llu ns", node,
             static_cast<unsigned long long>(events_.now()));
}

} // namespace hermes::sim
