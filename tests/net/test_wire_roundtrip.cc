/**
 * @file
 * Exhaustive encode/decode round-trips for every Hermes, membership,
 * client, CRAQ, ZAB and lock-step wire message type, plus a truncation
 * sweep asserting that every strict prefix of every valid frame is
 * rejected (treated as loss, never crashing or mis-decoding a replica),
 * and corrupt element counts that claim more than the frame holds.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/craq/messages.hh"
#include "baselines/lockstep/replica.hh"
#include "baselines/zab/replica.hh"
#include "hermes/messages.hh"
#include "membership/messages.hh"
#include "net/client_msgs.hh"
#include "net/message.hh"

namespace hermes
{
namespace
{

void
registerAllCodecs()
{
    proto::registerHermesCodecs();
    membership::registerRmCodecs();
    net::registerClientCodecs();
    craq::registerCraqCodecs();
    zab::registerZabCodecs();
    lockstep::registerLockstepCodecs();
}

std::vector<uint8_t>
encode(const net::Message &msg)
{
    std::vector<uint8_t> bytes;
    net::encodeMessage(msg, bytes);
    return bytes;
}

/** Round-trip @p msg and return the decoded message as T. */
template <typename T>
T
roundTrip(const T &msg)
{
    auto bytes = encode(msg);
    // wireSize() = 16-byte nominal envelope + payload; the actual encoded
    // envelope is 9 bytes (type u8 + src u32 + epoch u32).
    EXPECT_EQ(bytes.size(), msg.wireSize() - 7)
        << "payloadSize() disagrees with serializePayload() for "
        << net::msgTypeName(msg.type());
    auto decoded = net::decodeMessage(bytes.data(), bytes.size());
    if (decoded == nullptr) {
        ADD_FAILURE() << "decodeMessage returned nullptr for "
                      << net::msgTypeName(msg.type());
        return msg;
    }
    EXPECT_EQ(decoded->type(), msg.type());
    EXPECT_EQ(decoded->src, msg.src);
    EXPECT_EQ(decoded->epoch, msg.epoch);
    return static_cast<const T &>(*decoded);
}

/** Every strict prefix of a valid frame must decode to nullptr. */
void
expectAllPrefixesRejected(const net::Message &msg)
{
    auto bytes = encode(msg);
    for (size_t len = 0; len < bytes.size(); ++len)
        EXPECT_EQ(net::decodeMessage(bytes.data(), len), nullptr)
            << net::msgTypeName(msg.type()) << " prefix of " << len << "/"
            << bytes.size() << " bytes was not rejected";
}

template <typename T>
T
stampEnvelope(T msg)
{
    msg.src = 3;
    msg.epoch = 9;
    return msg;
}

proto::InvMsg
sampleInv(bool rmw)
{
    proto::InvMsg inv;
    inv.key = 0xFEEDFACEull;
    inv.ts = {41, 2};
    inv.rmw = rmw;
    inv.value = rmw ? "cas-desired" : std::string(300, 'x');
    return stampEnvelope(std::move(inv));
}

TEST(WireRoundTrip, Inv)
{
    registerAllCodecs();
    auto out = roundTrip(sampleInv(false));
    EXPECT_EQ(out.key, 0xFEEDFACEull);
    EXPECT_EQ(out.ts, (Timestamp{41, 2}));
    EXPECT_FALSE(out.rmw);
    EXPECT_EQ(out.value, std::string(300, 'x'));
}

TEST(WireRoundTrip, InvRmwFlagSurvives)
{
    registerAllCodecs();
    auto out = roundTrip(sampleInv(true));
    EXPECT_TRUE(out.rmw);
    EXPECT_EQ(out.value, "cas-desired");
}

TEST(WireRoundTrip, Ack)
{
    registerAllCodecs();
    proto::AckMsg ack;
    ack.key = 77;
    ack.ts = {12, 4};
    auto out = roundTrip(stampEnvelope(ack));
    EXPECT_EQ(out.key, 77u);
    EXPECT_EQ(out.ts, (Timestamp{12, 4}));
}

TEST(WireRoundTrip, Val)
{
    registerAllCodecs();
    proto::ValMsg val;
    val.key = 78;
    val.ts = {13, 1};
    auto out = roundTrip(stampEnvelope(val));
    EXPECT_EQ(out.key, 78u);
    EXPECT_EQ(out.ts, (Timestamp{13, 1}));
}

TEST(WireRoundTrip, StateReq)
{
    registerAllCodecs();
    proto::StateReqMsg req;
    req.offset = 123456789ull;
    EXPECT_EQ(roundTrip(stampEnvelope(req)).offset, 123456789ull);
}

TEST(WireRoundTrip, StateChunk)
{
    registerAllCodecs();
    proto::StateChunkMsg chunk;
    chunk.offset = 64;
    chunk.done = true;
    chunk.entries.push_back({1, {2, 0}, 0x5A, true, "committed"});
    chunk.entries.push_back({2, {9, 1}, 0, false, std::string(100, 'i')});
    chunk.entries.push_back({3, {1, 2}, 0, true, ""});

    auto out = roundTrip(stampEnvelope(chunk));
    EXPECT_EQ(out.offset, 64u);
    EXPECT_TRUE(out.done);
    ASSERT_EQ(out.entries.size(), 3u);
    EXPECT_EQ(out.entries[0].key, 1u);
    EXPECT_EQ(out.entries[0].ts, (Timestamp{2, 0}));
    EXPECT_EQ(out.entries[0].flags, 0x5A);
    EXPECT_TRUE(out.entries[0].valid);
    EXPECT_EQ(out.entries[0].value, "committed");
    EXPECT_FALSE(out.entries[1].valid);
    EXPECT_EQ(out.entries[1].value, std::string(100, 'i'));
    EXPECT_EQ(out.entries[2].value, "");
}

TEST(WireRoundTrip, EpochCheckAndAck)
{
    registerAllCodecs();
    proto::EpochCheckMsg check;
    check.nonce = 0xC0FFEEull;
    EXPECT_EQ(roundTrip(stampEnvelope(check)).nonce, 0xC0FFEEull);

    proto::EpochCheckAckMsg ack;
    ack.nonce = 0xC0FFEEull;
    EXPECT_EQ(roundTrip(stampEnvelope(ack)).nonce, 0xC0FFEEull);
}

TEST(WireRoundTrip, RmHeartbeat)
{
    registerAllCodecs();
    // The heartbeat's whole content is its envelope (src + epoch).
    auto out = roundTrip(stampEnvelope(membership::RmHeartbeatMsg{}));
    EXPECT_EQ(out.src, 3u);
    EXPECT_EQ(out.epoch, 9u);
}

TEST(WireRoundTrip, RmPrepare)
{
    registerAllCodecs();
    membership::RmPrepareMsg prepare;
    prepare.targetEpoch = 6;
    prepare.ballot = {3, 1};
    auto out = roundTrip(stampEnvelope(prepare));
    EXPECT_EQ(out.targetEpoch, 6u);
    EXPECT_EQ(out.ballot, (membership::Ballot{3, 1}));
}

TEST(WireRoundTrip, RmPromiseWithoutAcceptedValue)
{
    registerAllCodecs();
    membership::RmPromiseMsg promise;
    promise.targetEpoch = 6;
    promise.ballot = {3, 1};
    promise.reply.ok = false;
    promise.reply.promised = {4, 2};
    auto out = roundTrip(stampEnvelope(promise));
    EXPECT_FALSE(out.reply.ok);
    EXPECT_EQ(out.reply.promised, (membership::Ballot{4, 2}));
    EXPECT_FALSE(out.reply.acceptedBallot.has_value());
    EXPECT_FALSE(out.reply.acceptedValue.has_value());
}

TEST(WireRoundTrip, RmPromiseWithAcceptedValue)
{
    registerAllCodecs();
    membership::RmPromiseMsg promise;
    promise.targetEpoch = 6;
    promise.ballot = {3, 1};
    promise.reply.ok = true;
    promise.reply.promised = {3, 1};
    promise.reply.acceptedBallot = membership::Ballot{2, 0};
    promise.reply.acceptedValue = membership::MembershipView{6, {0, 1, 3}};
    auto out = roundTrip(stampEnvelope(promise));
    EXPECT_TRUE(out.reply.ok);
    ASSERT_TRUE(out.reply.acceptedBallot.has_value());
    EXPECT_EQ(*out.reply.acceptedBallot, (membership::Ballot{2, 0}));
    ASSERT_TRUE(out.reply.acceptedValue.has_value());
    EXPECT_EQ(*out.reply.acceptedValue,
              (membership::MembershipView{6, {0, 1, 3}}));
}

TEST(WireRoundTrip, RmAccept)
{
    registerAllCodecs();
    membership::RmAcceptMsg accept;
    accept.targetEpoch = 7;
    accept.ballot = {5, 0};
    accept.value = {7, {0, 2, 4}};
    auto out = roundTrip(stampEnvelope(accept));
    EXPECT_EQ(out.targetEpoch, 7u);
    EXPECT_EQ(out.ballot, (membership::Ballot{5, 0}));
    EXPECT_EQ(out.value, (membership::MembershipView{7, {0, 2, 4}}));
}

TEST(WireRoundTrip, RmAccepted)
{
    registerAllCodecs();
    membership::RmAcceptedMsg accepted;
    accepted.targetEpoch = 7;
    accepted.ballot = {5, 0};
    accepted.reply = {true, {5, 0}};
    auto out = roundTrip(stampEnvelope(accepted));
    EXPECT_EQ(out.targetEpoch, 7u);
    EXPECT_TRUE(out.reply.ok);
    EXPECT_EQ(out.reply.promised, (membership::Ballot{5, 0}));
}

TEST(WireRoundTrip, RmDecide)
{
    registerAllCodecs();
    membership::RmDecideMsg decide;
    decide.view = {8, {1, 2, 3, 4}};
    auto out = roundTrip(stampEnvelope(decide));
    EXPECT_EQ(out.view, (membership::MembershipView{8, {1, 2, 3, 4}}));
}

TEST(WireRoundTrip, ClientRequestAndReply)
{
    registerAllCodecs();
    net::ClientRequestMsg req;
    req.op = net::ClientRequestMsg::Op::Cas;
    req.reqId = 42;
    req.key = 11;
    req.shard = 6;
    req.numShards = 8;
    req.mapEpoch = 0xDEADBEEFu;
    req.value = "desired";
    req.expected = "expected";
    auto outReq = roundTrip(stampEnvelope(req));
    EXPECT_EQ(outReq.op, net::ClientRequestMsg::Op::Cas);
    EXPECT_EQ(outReq.reqId, 42u);
    EXPECT_EQ(outReq.key, 11u);
    EXPECT_EQ(outReq.shard, 6u);
    EXPECT_EQ(outReq.numShards, 8u);
    EXPECT_EQ(outReq.mapEpoch, 0xDEADBEEFu)
        << "the client's map-epoch stamp is a full u32 on the wire — the "
           "future-epoch rejection depends on garbage surviving intact";
    EXPECT_EQ(outReq.value, "desired");
    EXPECT_EQ(outReq.expected, "expected");

    net::ClientReplyMsg reply;
    reply.reqId = 42;
    reply.ok = false;
    reply.shard = 6;
    reply.status = net::ClientReplyMsg::Status::WrongShard;
    reply.mapShards = 4;
    reply.mapShard = 2;
    reply.credits = 96;
    reply.mapPorts = {{17000, 17001, 17002}, {}, {17006}, {17009}};
    reply.mapEpoch = 3;
    reply.slotOwners = {3, 1, 2, 0, 3, 3};
    reply.value = "observed";
    auto outReply = roundTrip(stampEnvelope(reply));
    EXPECT_EQ(outReply.reqId, 42u);
    EXPECT_FALSE(outReply.ok);
    EXPECT_EQ(outReply.shard, 6u);
    EXPECT_EQ(outReply.status, net::ClientReplyMsg::Status::WrongShard);
    EXPECT_EQ(outReply.mapShards, 4u);
    EXPECT_EQ(outReply.mapShard, 2u);
    EXPECT_EQ(outReply.credits, 96u)
        << "the HELLO credit grant must survive the wire";
    EXPECT_EQ(outReply.mapPorts, reply.mapPorts)
        << "the shard->address map must survive the wire: it is what a "
           "misrouted client re-routes from";
    EXPECT_EQ(outReply.mapEpoch, 3u);
    EXPECT_EQ(outReply.slotOwners, reply.slotOwners)
        << "the slot->owner table must survive the wire: it is what a "
           "client routes by after a migration";
    EXPECT_EQ(outReply.value, "observed");

    // The lean data-path shape (no address map, no owners) round-trips.
    net::ClientReplyMsg lean;
    lean.reqId = 7;
    auto outLean = roundTrip(stampEnvelope(lean));
    EXPECT_TRUE(outLean.mapPorts.empty());
    EXPECT_TRUE(outLean.slotOwners.empty());
}

TEST(WireRoundTrip, ClientShardIdExtremesSurvive)
{
    // The shard id is a full u32 on the wire: boundary values must
    // round-trip exactly (a truncated encoding would alias shard routes).
    registerAllCodecs();
    for (uint32_t shard : {0u, 1u, 4096u, 0xFFFFFFFFu}) {
        net::ClientRequestMsg req;
        req.op = net::ClientRequestMsg::Op::Read;
        req.reqId = 7;
        req.key = 99;
        req.shard = shard;
        EXPECT_EQ(roundTrip(stampEnvelope(req)).shard, shard);

        net::ClientReplyMsg reply;
        reply.reqId = 7;
        reply.shard = shard;
        EXPECT_EQ(roundTrip(stampEnvelope(reply)).shard, shard);
    }
}

craq::WriteMsg
sampleCraqWrite()
{
    craq::WriteMsg write;
    write.key = 21;
    write.version = 5;
    write.value = std::string(90, 'c');
    write.origin = 2;
    write.reqId = 0x1234;
    return stampEnvelope(std::move(write));
}

TEST(WireRoundTrip, CraqMessages)
{
    registerAllCodecs();
    auto write = roundTrip(sampleCraqWrite());
    EXPECT_EQ(write.key, 21u);
    EXPECT_EQ(write.version, 5u);
    EXPECT_EQ(write.value, std::string(90, 'c'));
    EXPECT_EQ(write.origin, 2u);
    EXPECT_EQ(write.reqId, 0x1234u);

    craq::ForwardMsg fwd;
    fwd.key = 22;
    fwd.value = "fwd";
    fwd.origin = 1;
    fwd.reqId = 77;
    auto outFwd = roundTrip(stampEnvelope(fwd));
    EXPECT_EQ(outFwd.key, 22u);
    EXPECT_EQ(outFwd.value, "fwd");
    EXPECT_EQ(outFwd.origin, 1u);
    EXPECT_EQ(outFwd.reqId, 77u);

    craq::WriteAckMsg ack;
    ack.key = 23;
    ack.version = 6;
    ack.origin = 0;
    ack.reqId = 78;
    auto outAck = roundTrip(stampEnvelope(ack));
    EXPECT_EQ(outAck.key, 23u);
    EXPECT_EQ(outAck.version, 6u);
    EXPECT_EQ(outAck.origin, 0u);
    EXPECT_EQ(outAck.reqId, 78u);

    craq::VersionQueryMsg query;
    query.key = 24;
    query.reqId = 79;
    auto outQuery = roundTrip(stampEnvelope(query));
    EXPECT_EQ(outQuery.key, 24u);
    EXPECT_EQ(outQuery.reqId, 79u);

    craq::VersionReplyMsg reply;
    reply.key = 24;
    reply.version = 9;
    reply.reqId = 79;
    auto outReply = roundTrip(stampEnvelope(reply));
    EXPECT_EQ(outReply.key, 24u);
    EXPECT_EQ(outReply.version, 9u);
    EXPECT_EQ(outReply.reqId, 79u);
}

zab::ProposeMsg
sampleZabPropose()
{
    zab::ProposeMsg propose;
    propose.zxid = 0x200000001ull;
    propose.key = 31;
    propose.value = "proposed";
    propose.origin = 1;
    propose.reqId = 81;
    return stampEnvelope(std::move(propose));
}

TEST(WireRoundTrip, ZabMessages)
{
    registerAllCodecs();
    auto propose = roundTrip(sampleZabPropose());
    EXPECT_EQ(propose.zxid, 0x200000001ull);
    EXPECT_EQ(propose.key, 31u);
    EXPECT_EQ(propose.value, "proposed");
    EXPECT_EQ(propose.origin, 1u);
    EXPECT_EQ(propose.reqId, 81u);

    zab::ForwardMsg fwd;
    fwd.key = 32;
    fwd.value = std::string(100, 'f');
    fwd.origin = 2;
    fwd.reqId = 82;
    auto outFwd = roundTrip(stampEnvelope(fwd));
    EXPECT_EQ(outFwd.key, 32u);
    EXPECT_EQ(outFwd.value, std::string(100, 'f'));
    EXPECT_EQ(outFwd.origin, 2u);
    EXPECT_EQ(outFwd.reqId, 82u);

    zab::AckMsg ack;
    ack.zxid = 0x200000001ull;
    EXPECT_EQ(roundTrip(stampEnvelope(ack)).zxid, 0x200000001ull);

    zab::CommitMsg commit;
    commit.zxid = 0x200000002ull;
    EXPECT_EQ(roundTrip(stampEnvelope(commit)).zxid, 0x200000002ull);
}

lockstep::RoundMsg
sampleRound()
{
    lockstep::RoundMsg round;
    round.round = 12;
    round.entries.push_back({41, "first", 0, 1});
    round.entries.push_back({42, std::string(80, 'r'), 2, 2});
    round.entries.push_back({43, "", 1, 3});
    return stampEnvelope(std::move(round));
}

TEST(WireRoundTrip, LockstepMessages)
{
    registerAllCodecs();
    auto round = roundTrip(sampleRound());
    EXPECT_EQ(round.round, 12u);
    ASSERT_EQ(round.entries.size(), 3u);
    EXPECT_EQ(round.entries[0].key, 41u);
    EXPECT_EQ(round.entries[0].value, "first");
    EXPECT_EQ(round.entries[1].value, std::string(80, 'r'));
    EXPECT_EQ(round.entries[1].origin, 2u);
    EXPECT_EQ(round.entries[2].value, "");
    EXPECT_EQ(round.entries[2].reqId, 3u);

    lockstep::SubmitMsg submit;
    submit.entry = {44, "submitted", 1, 99};
    auto outSubmit = roundTrip(stampEnvelope(submit));
    EXPECT_EQ(outSubmit.entry.key, 44u);
    EXPECT_EQ(outSubmit.entry.value, "submitted");
    EXPECT_EQ(outSubmit.entry.origin, 1u);
    EXPECT_EQ(outSubmit.entry.reqId, 99u);

    lockstep::RoundAckMsg ack;
    ack.round = 12;
    EXPECT_EQ(roundTrip(stampEnvelope(ack)).round, 12u);
}

TEST(WireRoundTrip, UnregisteredTypeIsRejected)
{
    registerAllCodecs();
    // A frame whose type byte no codec registered decodes to nullptr
    // whatever its body: 112, the retired per-peer batch envelope an
    // older peer may still send, and 200, never assigned.
    proto::AckMsg ack;
    ack.key = 9;
    auto bytes = encode(stampEnvelope(ack));
    ASSERT_NE(net::decodeMessage(bytes.data(), bytes.size()), nullptr);
    for (uint8_t type : {uint8_t{112}, uint8_t{200}}) {
        SCOPED_TRACE(static_cast<int>(type));
        bytes[0] = type;
        EXPECT_EQ(net::findDecoder(static_cast<net::MsgType>(type)),
                  nullptr);
        EXPECT_EQ(net::decodeMessage(bytes.data(), bytes.size()), nullptr);
    }
}

TEST(WireTruncation, EveryPrefixOfEveryMessageIsRejected)
{
    registerAllCodecs();

    expectAllPrefixesRejected(sampleInv(false));
    expectAllPrefixesRejected(sampleInv(true));

    proto::AckMsg ack;
    ack.key = 1;
    ack.ts = {1, 1};
    expectAllPrefixesRejected(stampEnvelope(ack));

    proto::ValMsg val;
    val.key = 1;
    val.ts = {1, 1};
    expectAllPrefixesRejected(stampEnvelope(val));

    proto::StateReqMsg stateReq;
    stateReq.offset = 10;
    expectAllPrefixesRejected(stampEnvelope(stateReq));

    proto::StateChunkMsg chunk;
    chunk.entries.push_back({1, {2, 0}, 0, true, "value"});
    chunk.entries.push_back({2, {3, 1}, 0, false, "other"});
    expectAllPrefixesRejected(stampEnvelope(chunk));

    expectAllPrefixesRejected(stampEnvelope(proto::EpochCheckMsg{}));
    expectAllPrefixesRejected(stampEnvelope(proto::EpochCheckAckMsg{}));

    expectAllPrefixesRejected(stampEnvelope(membership::RmHeartbeatMsg{}));

    membership::RmPrepareMsg prepare;
    prepare.ballot = {1, 0};
    expectAllPrefixesRejected(stampEnvelope(prepare));

    membership::RmPromiseMsg promise;
    promise.reply.ok = true;
    promise.reply.acceptedBallot = membership::Ballot{1, 0};
    promise.reply.acceptedValue = membership::MembershipView{2, {0, 1, 2}};
    expectAllPrefixesRejected(stampEnvelope(promise));

    membership::RmAcceptMsg accept;
    accept.value = {2, {0, 1, 2}};
    expectAllPrefixesRejected(stampEnvelope(accept));

    expectAllPrefixesRejected(stampEnvelope(membership::RmAcceptedMsg{}));

    membership::RmDecideMsg decide;
    decide.view = {3, {0, 1}};
    expectAllPrefixesRejected(stampEnvelope(decide));

    net::ClientRequestMsg req;
    req.shard = 3;
    req.numShards = 4;
    req.value = "v";
    req.expected = "e";
    expectAllPrefixesRejected(stampEnvelope(req));

    net::ClientReplyMsg reply;
    reply.shard = 3;
    reply.mapPorts = {{17000, 17001}, {17003}};
    reply.value = "v";
    expectAllPrefixesRejected(stampEnvelope(reply));

    expectAllPrefixesRejected(sampleCraqWrite());
    craq::ForwardMsg craqFwd;
    craqFwd.value = "v";
    expectAllPrefixesRejected(stampEnvelope(craqFwd));
    expectAllPrefixesRejected(stampEnvelope(craq::WriteAckMsg{}));
    expectAllPrefixesRejected(stampEnvelope(craq::VersionQueryMsg{}));
    expectAllPrefixesRejected(stampEnvelope(craq::VersionReplyMsg{}));

    expectAllPrefixesRejected(sampleZabPropose());
    zab::ForwardMsg zabFwd;
    zabFwd.value = "v";
    expectAllPrefixesRejected(stampEnvelope(zabFwd));
    expectAllPrefixesRejected(stampEnvelope(zab::AckMsg{}));
    expectAllPrefixesRejected(stampEnvelope(zab::CommitMsg{}));

    expectAllPrefixesRejected(sampleRound());
    lockstep::SubmitMsg submit;
    submit.entry = {1, "v", 0, 1};
    expectAllPrefixesRejected(stampEnvelope(submit));
    expectAllPrefixesRejected(stampEnvelope(lockstep::RoundAckMsg{}));
}

/**
 * Overwrite the count at byte @p offset of @p msg 's frame with all-ones
 * of @p width bytes and cut the frame short after it: the decoder must
 * reject the frame instead of allocating what the count claims.
 */
void
expectHugeCountRejected(const net::Message &msg, size_t offset,
                        size_t width)
{
    auto bytes = encode(msg);
    ASSERT_LE(offset + width, bytes.size());
    for (size_t i = 0; i < width; ++i)
        bytes[offset + i] = 0xFF;
    // Full frame with the bad count, and the count plus a short body.
    for (size_t len : {bytes.size(), offset + width + 3}) {
        len = std::min(len, bytes.size());
        EXPECT_EQ(net::decodeMessage(bytes.data(), len), nullptr)
            << net::msgTypeName(msg.type()) << ": count at byte " << offset
            << " decoded from " << len << " bytes";
    }
}

TEST(WireTruncation, HugeCountsAreRejected)
{
    registerAllCodecs();
    // Offsets count the 9-byte envelope (type, src, epoch).
    proto::StateChunkMsg chunk;
    chunk.entries.push_back({1, {2, 0}, 0, true, "value"});
    expectHugeCountRejected(stampEnvelope(chunk), 9 + 8 + 1, 4);

    expectHugeCountRejected(sampleRound(), 9 + 8, 4);

    membership::RmDecideMsg decide;
    decide.view = {3, {0, 1, 2}};
    expectHugeCountRejected(stampEnvelope(decide), 9 + 4, 4);

    net::ClientReplyMsg reply;
    reply.mapPorts = {{17000, 17001}, {17003}};
    reply.slotOwners = {1, 0, 1};
    reply.value = "v";
    // reqId, status, ok, shard, mapShards, mapShard, credits.
    const size_t ports = 9 + 8 + 1 + 1 + 4 + 4 + 4 + 4;
    expectHugeCountRejected(stampEnvelope(reply), ports, 2);
    // The first port list's own count.
    expectHugeCountRejected(stampEnvelope(reply), ports + 2, 2);
    // Past the map (2 + 2+4 + 2+2 bytes) and mapEpoch: slotOwners.
    expectHugeCountRejected(stampEnvelope(reply), ports + 12 + 4, 2);
}

} // namespace
} // namespace hermes
