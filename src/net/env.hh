/**
 * @file
 * The environment interface protocol replicas are written against.
 *
 * Every replication protocol in this library (Hermes, CRAQ, ZAB, lockstep)
 * is a pure message-driven state machine: it reacts to onMessage() and to
 * timers, and effects the world only through its Env. This is what lets the
 * same protocol code run inside the deterministic discrete-event simulator
 * (sim::SimRuntime) and on real TCP sockets (net::TcpCluster) unchanged.
 */

#ifndef HERMES_NET_ENV_HH
#define HERMES_NET_ENV_HH

#include <functional>

#include "common/durable_log.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "net/message.hh"

namespace hermes::net
{

/** Handle for cancelling a protocol timer. */
using TimerId = uint64_t;

/**
 * Per-replica runtime environment: identity, clock, messaging, timers and
 * a deterministic per-node RNG.
 */
class Env
{
  public:
    virtual ~Env() = default;

    /** This replica's node id. */
    virtual NodeId self() const = 0;

    /** Monotonic clock in ns (simulated or steady_clock). */
    virtual TimeNs now() const = 0;

    /**
     * Send @p msg to @p dst. The transport stamps msg->src (and leaves the
     * caller-set epoch untouched). Delivery is unreliable: messages may be
     * lost, duplicated or reordered, exactly the fault model of §2.4.
     */
    virtual void send(NodeId dst, MessagePtr msg) = 0;

    /**
     * Send @p msg to every node in @p dsts except self. A convenience over
     * repeated send(); transports may exploit it (multicast offload in the
     * cost model, shared payload buffers on TCP).
     */
    virtual void broadcast(const NodeSet &dsts, MessagePtr msg) = 0;

    /** Run @p fn once, @p after ns from now. @return cancellation handle. */
    virtual TimerId setTimer(DurationNs after, std::function<void()> fn) = 0;

    /** Cancel a pending timer; no-op if it fired already. */
    virtual void cancelTimer(TimerId id) = 0;

    /** Deterministic per-node randomness (virtual id choice, jitter). */
    virtual Rng &rng() = 0;

    /**
     * Account for @p count local datastore accesses performed while
     * handling the current message/timer. The simulated backend extends
     * the worker's occupancy accordingly (CRAQ's per-write multi-version
     * bookkeeping costs more than Hermes' in-place update, and that must
     * show up in throughput); the real TCP backend ignores it — there the
     * CPU cost is simply real.
     */
    virtual void chargeStoreAccess(unsigned count) { (void)count; }

    /**
     * Account for @p ns of protocol-internal CPU work in the current
     * handler (e.g. the lockstep sequencer's per-round ordering scan).
     * No-op on the real-network backend, where the cost is real.
     */
    virtual void chargeCpu(DurationNs ns) { (void)ns; }

    /**
     * Poll-end flush point. Transports call flush() on their own Env at
     * the end of every poll/job iteration, once all handlers that could
     * produce sends have run; it closes the attached log's group-commit
     * window. Each transport then coalesces the iteration's messages per
     * peer (the TCP loop's batch frames, the sim runtime's windows):
     * Wings' opportunistic batching policy (§4.2), coalesce whatever one
     * iteration produced, never stall to fill a batch.
     */
    void
    flush()
    {
        if (log_)
            log_->flush();
    }

    /**
     * Attach the replica's write-ahead log (nullptr detaches it); flush()
     * commits it. A transport that holds frames for the log (TCP) also
     * moves the log's group commit to a writer thread, stamps each frame
     * with the last record appended before it, and sends it once the log
     * is durable up to there. The sim commits at the job's flush.
     */
    virtual void attachLog(DurableLog *log) { log_ = log; }

    /** The attached log, or nullptr. */
    DurableLog *log() const { return log_; }

    /** False while a NoLogWait scope is open on this Env. */
    bool framesWaitForLog() const { return noLogWait_ == 0; }

  private:
    friend class NoLogWait;

    DurableLog *log_ = nullptr;
    unsigned noLogWait_ = 0;
};

/**
 * While alive and @p active, frames sent through @p env (messages and
 * client replies staged on its loop) wait for no log record. Only a
 * caller that has argued why the frame depends on no pending record
 * opens one: see "Which frames wait for the log" in hermes/replica.cc.
 */
class NoLogWait
{
  public:
    explicit NoLogWait(Env &env, bool active = true)
        : env_(env), active_(active)
    {
        env_.noLogWait_ += active_;
    }
    ~NoLogWait() { env_.noLogWait_ -= active_; }

    NoLogWait(const NoLogWait &) = delete;
    NoLogWait &operator=(const NoLogWait &) = delete;

  private:
    Env &env_;
    bool active_;
};

/**
 * A message-driven replica. Implementations must be non-blocking: handlers
 * run on the node's (simulated or real) worker and must only mutate local
 * state, send messages and arm timers.
 */
class Node
{
  public:
    virtual ~Node() = default;

    /** Called once before any message is delivered. */
    virtual void start() {}

    /** Deliver one message. Never called after the node crashes. */
    virtual void onMessage(const MessagePtr &msg) = 0;
};

} // namespace hermes::net

#endif // HERMES_NET_ENV_HH
