/**
 * @file
 * staleMap: the advertisement that makes a client deliberately stale.
 * Fed through `adoptAdvertisedMap`, it carries the live map's epoch (so
 * the strict-epoch rule adopts it) but fewer shards and no owner table,
 * so the client routes by the uniform placement over @p shards until a
 * WrongShard reply teaches it the real map.
 */

#ifndef HERMES_TESTS_SUPPORT_STALE_MAP_HH
#define HERMES_TESTS_SUPPORT_STALE_MAP_HH

#include <cstdint>

#include "net/client_msgs.hh"

namespace hermes::test
{

inline net::ClientReplyMsg
staleMap(uint32_t shards, uint32_t live_epoch = 1)
{
    net::ClientReplyMsg reply;
    reply.mapShards = shards;
    reply.mapEpoch = live_epoch;
    return reply;
}

} // namespace hermes::test

#endif // HERMES_TESTS_SUPPORT_STALE_MAP_HH
