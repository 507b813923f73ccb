/**
 * @file
 * Wire messages of the reliable-membership (RM) service: heartbeats plus
 * the single-decree Paxos exchange that decides each m-update.
 */

#ifndef HERMES_MEMBERSHIP_MESSAGES_HH
#define HERMES_MEMBERSHIP_MESSAGES_HH

#include <optional>

#include "membership/paxos.hh"
#include "membership/view.hh"
#include "net/message.hh"

namespace hermes::membership
{

/** Liveness beacon; the envelope epoch doubles as the sender's view. */
struct RmHeartbeatMsg : net::WireMsg<RmHeartbeatMsg, net::MsgType::RmHeartbeat>
{
    template <typename Ar>
    void wire(Ar &) {}
};

/** Paxos phase 1a for the decision instance creating @ref targetEpoch. */
struct RmPrepareMsg : net::WireMsg<RmPrepareMsg, net::MsgType::RmPrepare>
{
    Epoch targetEpoch = 0;
    Ballot ballot;

    template <typename Ar>
    void wire(Ar &ar) { ar(targetEpoch, ballot); }
};

/** Paxos phase 1b. */
struct RmPromiseMsg : net::WireMsg<RmPromiseMsg, net::MsgType::RmPromise>
{
    Epoch targetEpoch = 0;
    Ballot ballot;                       ///< the prepare this answers
    PaxosAcceptor::PrepareReply reply;

    template <typename Ar>
    void
    wire(Ar &ar)
    {
        ar(targetEpoch, ballot, reply.ok, reply.promised,
           net::together(reply.acceptedBallot, reply.acceptedValue));
    }
};

/** Paxos phase 2a. */
struct RmAcceptMsg : net::WireMsg<RmAcceptMsg, net::MsgType::RmAccept>
{
    Epoch targetEpoch = 0;
    Ballot ballot;
    MembershipView value;

    template <typename Ar>
    void wire(Ar &ar) { ar(targetEpoch, ballot, value); }
};

/** Paxos phase 2b. */
struct RmAcceptedMsg : net::WireMsg<RmAcceptedMsg, net::MsgType::RmAccepted>
{
    Epoch targetEpoch = 0;
    Ballot ballot;
    PaxosAcceptor::AcceptReply reply{false, {}};

    template <typename Ar>
    void wire(Ar &ar) { ar(targetEpoch, ballot, reply.ok, reply.promised); }
};

/** Learn a decided m-update (also used for anti-entropy on lag). */
struct RmDecideMsg : net::WireMsg<RmDecideMsg, net::MsgType::RmDecide>
{
    MembershipView view;

    template <typename Ar>
    void wire(Ar &ar) { ar(view); }
};

/** Register all RM message types (idempotent). */
void registerRmCodecs();

} // namespace hermes::membership

#endif // HERMES_MEMBERSHIP_MESSAGES_HH
