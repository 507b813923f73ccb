/**
 * @file
 * CRAQ wire messages (paper §2.5): chain write propagation, upstream
 * acknowledgments, and the tail version queries that make dirty reads
 * strongly consistent.
 */

#ifndef HERMES_BASELINES_CRAQ_MESSAGES_HH
#define HERMES_BASELINES_CRAQ_MESSAGES_HH

#include "net/message.hh"

namespace hermes::craq
{

/** A non-head node forwarding a client write to the chain head. */
struct ForwardMsg : net::WireMsg<ForwardMsg, net::MsgType::CraqForward>
{
    Key key = 0;
    ValueRef value;
    NodeId origin = kInvalidNode; ///< node owning the client callback
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, value, origin, reqId); }
};

/** A versioned write propagating down the chain. */
struct WriteMsg : net::WireMsg<WriteMsg, net::MsgType::CraqWrite>
{
    Key key = 0;
    uint32_t version = 0;
    ValueRef value;
    NodeId origin = kInvalidNode;
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, version, value, origin, reqId); }
};

/** Commit acknowledgment propagating back up the chain from the tail. */
struct WriteAckMsg : net::WireMsg<WriteAckMsg, net::MsgType::CraqWriteAck>
{
    Key key = 0;
    uint32_t version = 0;
    NodeId origin = kInvalidNode;
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, version, origin, reqId); }
};

/** Dirty read: ask the tail which version of the key is committed. */
struct VersionQueryMsg
    : net::WireMsg<VersionQueryMsg, net::MsgType::CraqVersionQuery>
{
    Key key = 0;
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, reqId); }
};

/** Tail's answer to a version query. */
struct VersionReplyMsg
    : net::WireMsg<VersionReplyMsg, net::MsgType::CraqVersionReply>
{
    Key key = 0;
    uint32_t version = 0;
    uint64_t reqId = 0;

    template <typename Ar>
    void wire(Ar &ar) { ar(key, version, reqId); }
};

/** Register the CRAQ message types (idempotent). */
void registerCraqCodecs();

} // namespace hermes::craq

#endif // HERMES_BASELINES_CRAQ_MESSAGES_HH
