/**
 * @file
 * Single-decree Paxos over membership views.
 *
 * This is the majority-based protocol the paper's reliable membership
 * (Vertical-Paxos style, §2.4) bottoms out in: each epoch's m-update is
 * one Paxos decision among the members of the previous epoch. The classes
 * here are transport-agnostic state machines — RmNode wires them to the
 * Env — so the safety-critical logic is unit-testable in isolation,
 * including the classic dueling-proposer and value-adoption corner cases.
 */

#ifndef HERMES_MEMBERSHIP_PAXOS_HH
#define HERMES_MEMBERSHIP_PAXOS_HH

#include <compare>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "membership/view.hh"

namespace hermes::membership
{

/** Totally ordered proposal number: (round, proposer id). */
struct Ballot
{
    uint32_t round = 0;
    NodeId node = kInvalidNode;

    template <typename Ar>
    void wire(Ar &ar) { ar(round, node); }

    auto operator<=>(const Ballot &) const = default;

    bool valid() const { return node != kInvalidNode; }
};

/**
 * Acceptor half: durable promise/accept state for one decision instance.
 */
class PaxosAcceptor
{
  public:
    struct PrepareReply
    {
        bool ok;                 ///< promise granted
        Ballot promised;         ///< highest promise (for proposer back-off)
        std::optional<Ballot> acceptedBallot;
        std::optional<MembershipView> acceptedValue;
    };

    struct AcceptReply
    {
        bool ok;                 ///< value accepted
        Ballot promised;
    };

    /** Phase 1b: promise iff @p ballot is the highest seen. */
    PrepareReply onPrepare(const Ballot &ballot);

    /** Phase 2b: accept iff no higher promise was made meanwhile. */
    AcceptReply onAccept(const Ballot &ballot, const MembershipView &value);

    const std::optional<Ballot> &promised() const { return promised_; }
    const std::optional<MembershipView> &accepted() const
    {
        return acceptedValue_;
    }

  private:
    std::optional<Ballot> promised_;
    std::optional<Ballot> acceptedBallot_;
    std::optional<MembershipView> acceptedValue_;
};

/**
 * Proposer half: drives one value to decision with majority @p quorum.
 * The caller owns retransmission and ballot escalation timing; this class
 * owns the vote counting and the mandatory adopt-highest-accepted rule.
 */
class PaxosProposer
{
  public:
    /**
     * @param self   proposer's node id (ballot tie-break)
     * @param quorum majority threshold of the deciding ensemble
     */
    PaxosProposer(NodeId self, size_t quorum);

    /**
     * Begin (or restart with a higher ballot) a proposal for @p value.
     * @return the ballot to carry in Prepare messages.
     */
    Ballot startRound(const MembershipView &value);

    /**
     * Feed a PrepareReply from @p from.
     * @return the value to send in Accept messages once a majority of
     *         promises arrived (the highest accepted value wins over ours,
     *         per the Paxos value-adoption rule), or nullopt to keep
     *         waiting.
     */
    std::optional<MembershipView>
    onPrepareReply(NodeId from, const PaxosAcceptor::PrepareReply &reply);

    /**
     * Feed an AcceptReply from @p from.
     * @return the decided value once a majority accepted, else nullopt.
     */
    std::optional<MembershipView>
    onAcceptReply(NodeId from, const PaxosAcceptor::AcceptReply &reply);

    /** The ballot of the in-flight round. */
    const Ballot &ballot() const { return ballot_; }

    /** The value the in-flight round is pushing (post-adoption). */
    const MembershipView &value() const { return value_; }

    /** True once this round reached the accept phase. */
    bool inAcceptPhase() const { return acceptPhase_; }

    /** Observing a higher promise means our round is dead; escalate. */
    bool sawHigherBallot() const { return sawHigher_; }

  private:
    NodeId self_;
    size_t quorum_;
    Ballot ballot_;
    MembershipView value_;
    std::vector<NodeId> promisesFrom_;
    std::vector<NodeId> acceptsFrom_;
    std::optional<Ballot> highestAccepted_;
    bool acceptPhase_ = false;
    bool sawHigher_ = false;
    uint32_t roundCounter_ = 0;
};

} // namespace hermes::membership

#endif // HERMES_MEMBERSHIP_PAXOS_HH
