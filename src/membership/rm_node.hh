/**
 * @file
 * RmNode: the per-replica reliable-membership agent (paper §2.4).
 *
 * Mirrors the Vertical-Paxos construction the paper assumes:
 *  - every replica beacons heartbeats and tracks when it last heard each
 *    member of its view;
 *  - a replica holds a *lease* — it is operational only while it heard a
 *    majority of its view within the lease duration, so a partitioned
 *    minority stops serving requests on its own;
 *  - when a member stays silent past the failure timeout, the lowest
 *    surviving node waits out the lease (so the suspect has provably
 *    stopped serving), then drives a single-decree Paxos instance among
 *    the previous view's members to decide the next epoch's view
 *    (an *m-update*: new live list + incremented epoch_id);
 *  - decisions are broadcast and gossiped to lagging nodes via heartbeat
 *    epoch mismatches.
 *
 * Node additions (shadow replicas, §3.4 Recovery) reuse the same decision
 * path without the lease wait.
 */

#ifndef HERMES_MEMBERSHIP_RM_NODE_HH
#define HERMES_MEMBERSHIP_RM_NODE_HH

#include <functional>
#include <map>
#include <optional>

#include "membership/messages.hh"
#include "membership/paxos.hh"
#include "membership/view.hh"
#include "net/env.hh"

namespace hermes::membership
{

/** Timing knobs of the RM service. */
struct RmConfig
{
    /** Heartbeat beacon period. */
    DurationNs heartbeatInterval = 5_ms;
    /** Silence after which a member is suspected failed (Fig 9: 150ms). */
    DurationNs failureTimeout = 150_ms;
    /** Membership lease: operational only with quorum contact this fresh. */
    DurationNs leaseDuration = 20_ms;
    /** Paxos round retry period (with jitter) while a proposal is stuck. */
    DurationNs proposalRetry = 10_ms;
};

/**
 * The RM agent colocated with each replica. Single-threaded: all entry
 * points must be called from the owning node's execution context.
 */
class RmNode
{
  public:
    using ViewChangeFn = std::function<void(const MembershipView &)>;

    RmNode(net::Env &env, MembershipView initial, RmConfig config = {});

    /** Arm the heartbeat/failure-detector timer. */
    void start();

    /** Feed an RM message (caller dispatches via net::isRmMessage). */
    void onMessage(const net::MessagePtr &msg);

    /** The current view this node executes in. */
    const MembershipView &view() const { return view_; }

    /** Lease check: heard a quorum of the view within the lease window. */
    bool leaseValid() const;

    /** Live in the current view *and* holding a valid lease. */
    bool operational() const;

    /** Subscribe to m-updates (invoked after the view is adopted). */
    void onViewChange(ViewChangeFn fn) { viewChange_ = std::move(fn); }

    /** Propose adding @p node (shadow-replica join; no lease wait). */
    void proposeAddition(NodeId node);

    // ---- test introspection ----
    bool hasSuspects() const { return !suspects_.empty(); }
    bool proposing() const { return proposer_.has_value(); }

  private:
    void heartbeatTick();
    void updateSuspects();
    void beginProposal(MembershipView target);
    void sendPrepares();
    void sendAccepts();
    void decide(const MembershipView &value);
    void adopt(const MembershipView &value);

    void handleHeartbeat(const net::MessagePtr &msg);
    void handlePrepare(const RmPrepareMsg &msg);
    void handlePromise(const RmPromiseMsg &msg);
    void handleAccept(const RmAcceptMsg &msg);
    void handleAccepted(const RmAcceptedMsg &msg);
    void handleDecide(const RmDecideMsg &msg);

    net::Env &env_;
    MembershipView view_;
    RmConfig config_;
    ViewChangeFn viewChange_;

    std::map<NodeId, TimeNs> lastHeard_;
    NodeSet suspects_;
    std::optional<TimeNs> leaseWaitUntil_;

    /** Paxos state, keyed by the epoch the instance would create. */
    std::map<Epoch, PaxosAcceptor> acceptors_;
    std::optional<PaxosProposer> proposer_;
    Epoch proposalEpoch_ = 0;
    MembershipView proposalTarget_;
    TimeNs lastRoundStart_ = 0;
};

} // namespace hermes::membership

#endif // HERMES_MEMBERSHIP_RM_NODE_HH
