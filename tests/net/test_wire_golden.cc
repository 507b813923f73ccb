/**
 * @file
 * Golden wire bytes for one filled-in sample of every message type: the
 * exact encoded frame (envelope + payload) is pinned as a hex literal, so
 * any codec change that moves, widens or drops a byte fails here. Each
 * frame must also decode and re-encode to the same bytes, agree with
 * wireSize() and encode identically through the scatter/gather path.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

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

std::string
toHex(const std::vector<uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string hex;
    for (uint8_t b : bytes) {
        hex += digits[b >> 4];
        hex += digits[b & 0xF];
    }
    return hex;
}

std::vector<uint8_t>
encode(const net::Message &msg)
{
    std::vector<uint8_t> bytes;
    net::encodeMessage(msg, bytes);
    return bytes;
}

template <typename T>
std::shared_ptr<net::Message>
stamped(T msg)
{
    msg.src = 0x0A0B0C0D;
    msg.epoch = 0x11223344;
    return std::make_shared<T>(std::move(msg));
}

/** Above kZeroCopyThreshold: rides as a gather segment on encode. */
const std::string kBigValue(72, 'z');

struct Golden
{
    const char *name;
    std::function<std::shared_ptr<net::Message>()> make;
    const char *hex;
};

const std::vector<Golden> &
goldens()
{
    static const std::vector<Golden> table = {
        {"HermesInv",
         [] {
             proto::InvMsg m;
             m.key = 0x0102030405060708ull;
             m.ts = {0x21, 0x3};
             m.rmw = true;
             m.value = kBigValue;
             return stamped(m);
         },
         "000d0c0b0a44332211080706050403020121000000030000000148000000"
         "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
         "7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a7a"
         "7a7a7a7a7a7a7a7a7a7a7a7a"},
        {"HermesAck",
         [] {
             proto::AckMsg m;
             m.key = 0x77;
             m.ts = {12, 4};
             return stamped(m);
         },
         "010d0c0b0a4433221177000000000000000c00000004000000"},
        {"HermesVal",
         [] {
             proto::ValMsg m;
             m.key = 0x78;
             m.ts = {13, 1};
             return stamped(m);
         },
         "020d0c0b0a4433221178000000000000000d00000001000000"},
        {"HermesStateReq",
         [] {
             proto::StateReqMsg m;
             m.offset = 0x123456789ull;
             return stamped(m);
         },
         "030d0c0b0a443322118967452301000000"},
        {"HermesStateChunk",
         [] {
             proto::StateChunkMsg m;
             m.offset = 64;
             m.done = true;
             m.entries.push_back({1, {2, 0}, 0x5A, true, "ok"});
             m.entries.push_back({2, {9, 1}, 0, false, ""});
             return stamped(m);
         },
         "040d0c0b0a44332211400000000000000001020000000100000000000000"
         "02000000000000005a01020000006f6b0200000000000000090000000100"
         "0000000000000000"},
        {"HermesEpochCheck",
         [] {
             proto::EpochCheckMsg m;
             m.nonce = 0xC0FFEEull;
             return stamped(m);
         },
         "050d0c0b0a44332211eeffc00000000000"},
        {"HermesEpochCheckAck",
         [] {
             proto::EpochCheckAckMsg m;
             m.nonce = 0xBEEFull;
             return stamped(m);
         },
         "060d0c0b0a44332211efbe000000000000"},
        {"CraqWrite",
         [] {
             craq::WriteMsg m;
             m.key = 5;
             m.version = 6;
             m.value = "cw";
             m.origin = 2;
             m.reqId = 0x99;
             return stamped(m);
         },
         "100d0c0b0a44332211050000000000000006000000020000006377020000"
         "009900000000000000"},
        {"CraqWriteAck",
         [] {
             craq::WriteAckMsg m;
             m.key = 5;
             m.version = 6;
             m.origin = 2;
             m.reqId = 0x99;
             return stamped(m);
         },
         "110d0c0b0a44332211050000000000000006000000020000009900000000"
         "000000"},
        {"CraqVersionQuery",
         [] {
             craq::VersionQueryMsg m;
             m.key = 7;
             m.reqId = 0xAA;
             return stamped(m);
         },
         "120d0c0b0a443322110700000000000000aa00000000000000"},
        {"CraqVersionReply",
         [] {
             craq::VersionReplyMsg m;
             m.key = 7;
             m.version = 3;
             m.reqId = 0xAA;
             return stamped(m);
         },
         "130d0c0b0a44332211070000000000000003000000aa00000000000000"},
        {"CraqForward",
         [] {
             craq::ForwardMsg m;
             m.key = 8;
             m.value = "cf";
             m.origin = 1;
             m.reqId = 0xBB;
             return stamped(m);
         },
         "140d0c0b0a44332211080000000000000002000000636601000000bb0000"
         "0000000000"},
        {"ZabForward",
         [] {
             zab::ForwardMsg m;
             m.key = 9;
             m.value = "zf";
             m.origin = 2;
             m.reqId = 0xCC;
             return stamped(m);
         },
         "200d0c0b0a443322110900000000000000020000007a6602000000cc0000"
         "0000000000"},
        {"ZabPropose",
         [] {
             zab::ProposeMsg m;
             m.zxid = 0x100000002ull;
             m.key = 9;
             m.value = "zp";
             m.origin = 2;
             m.reqId = 0xCC;
             return stamped(m);
         },
         "210d0c0b0a4433221102000000010000000900000000000000020000007a"
         "7002000000cc00000000000000"},
        {"ZabAck",
         [] {
             zab::AckMsg m;
             m.zxid = 0x100000002ull;
             return stamped(m);
         },
         "220d0c0b0a443322110200000001000000"},
        {"ZabCommit",
         [] {
             zab::CommitMsg m;
             m.zxid = 0x100000003ull;
             return stamped(m);
         },
         "230d0c0b0a443322110300000001000000"},
        {"LockstepSubmit",
         [] {
             lockstep::SubmitMsg m;
             m.entry = {10, "ls", 1, 0xDD};
             return stamped(m);
         },
         "300d0c0b0a443322110a00000000000000020000006c7301000000dd0000"
         "0000000000"},
        {"LockstepRound",
         [] {
             lockstep::RoundMsg m;
             m.round = 4;
             m.entries.push_back({10, "a", 1, 0xDD});
             m.entries.push_back({11, "", 2, 0xDE});
             return stamped(m);
         },
         "310d0c0b0a443322110400000000000000020000000a0000000000000001"
         "0000006101000000dd000000000000000b00000000000000000000000200"
         "0000de00000000000000"},
        {"LockstepAck",
         [] {
             lockstep::RoundAckMsg m;
             m.round = 4;
             return stamped(m);
         },
         "320d0c0b0a443322110400000000000000"},
        {"RmHeartbeat",
         [] { return stamped(membership::RmHeartbeatMsg{}); },
         "400d0c0b0a44332211"},
        {"RmPrepare",
         [] {
             membership::RmPrepareMsg m;
             m.targetEpoch = 6;
             m.ballot = {3, 1};
             return stamped(m);
         },
         "410d0c0b0a44332211060000000300000001000000"},
        {"RmPromise",
         [] {
             membership::RmPromiseMsg m;
             m.targetEpoch = 6;
             m.ballot = {3, 1};
             m.reply.ok = true;
             m.reply.promised = {3, 1};
             m.reply.acceptedBallot = membership::Ballot{2, 0};
             m.reply.acceptedValue = membership::MembershipView{6, {0, 3}};
             return stamped(m);
         },
         "420d0c0b0a44332211060000000300000001000000010300000001000000"
         "01020000000000000006000000020000000000000003000000"},
        {"RmPromiseNoValue",
         [] {
             membership::RmPromiseMsg m;
             m.targetEpoch = 6;
             m.ballot = {3, 1};
             m.reply.ok = false;
             m.reply.promised = {4, 2};
             return stamped(m);
         },
         "420d0c0b0a44332211060000000300000001000000000400000002000000"
         "00"},
        {"RmAccept",
         [] {
             membership::RmAcceptMsg m;
             m.targetEpoch = 7;
             m.ballot = {5, 0};
             m.value = {7, {0, 2, 4}};
             return stamped(m);
         },
         "430d0c0b0a44332211070000000500000000000000070000000300000000"
         "0000000200000004000000"},
        {"RmAccepted",
         [] {
             membership::RmAcceptedMsg m;
             m.targetEpoch = 7;
             m.ballot = {5, 0};
             m.reply = {true, {5, 0}};
             return stamped(m);
         },
         "440d0c0b0a44332211070000000500000000000000010500000000000000"},
        {"RmDecide",
         [] {
             membership::RmDecideMsg m;
             m.view = {8, {1, 2}};
             return stamped(m);
         },
         "450d0c0b0a4433221108000000020000000100000002000000"},
        {"ClientRequest",
         [] {
             net::ClientRequestMsg m;
             m.op = net::ClientRequestMsg::Op::Cas;
             m.reqId = 42;
             m.key = 11;
             m.shard = 6;
             m.numShards = 8;
             m.mapEpoch = 0xDEADBEEFu;
             m.value = "new";
             m.expected = "old";
             return stamped(m);
         },
         "600d0c0b0a44332211022a000000000000000b0000000000000006000000"
         "08000000efbeadde030000006e6577030000006f6c64"},
        {"ClientReply",
         [] {
             net::ClientReplyMsg m;
             m.reqId = 42;
             m.status = net::ClientReplyMsg::Status::WrongShard;
             m.ok = false;
             m.shard = 6;
             m.mapShards = 3;
             m.mapShard = 2;
             m.credits = 96;
             m.mapPorts = {{17000, 17001}, {}, {17006}};
             m.mapEpoch = 3;
             m.slotOwners = {2, 1, 0};
             m.value = "seen";
             return stamped(m);
         },
         "610d0c0b0a443322112a0000000000000001000600000003000000020000"
         "00600000000300020068426942000001006e420300000003000200010000"
         "00040000007365656e"},
    };
    return table;
}

TEST(WireGolden, EveryMessageTypeIsPinned)
{
    // The table names every MsgType at least once.
    std::set<net::MsgType> seen;
    for (const Golden &g : goldens())
        seen.insert(g.make()->type());
    EXPECT_EQ(seen.size(), 27u);
}

TEST(WireGolden, EveryMessageEncodesToItsPinnedBytes)
{
    registerAllCodecs();
    for (const Golden &g : goldens()) {
        SCOPED_TRACE(g.name);
        std::shared_ptr<net::Message> msg = g.make();
        std::vector<uint8_t> bytes = encode(*msg);
        EXPECT_EQ(toHex(bytes), g.hex);
        EXPECT_EQ(bytes.size() + 7, msg->wireSize());

        // Scatter/gather encode flattens to the same bytes.
        WireFrame frame;
        net::encodeMessage(*msg, frame);
        std::vector<uint8_t> flat;
        frame.flattenTo(flat);
        EXPECT_EQ(toHex(flat), g.hex);

        // The decoder reads back what re-encodes to the same bytes.
        auto decoded = net::decodeMessage(bytes.data(), bytes.size());
        ASSERT_NE(decoded, nullptr);
        EXPECT_EQ(decoded->type(), msg->type());
        EXPECT_EQ(toHex(encode(*decoded)), g.hex);
        EXPECT_EQ(decoded->valueBytes(), msg->valueBytes());
    }
}

} // namespace
} // namespace hermes
