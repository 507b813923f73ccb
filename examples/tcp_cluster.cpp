/**
 * @file
 * A real-network deployment: 3 Hermes replicas on localhost TCP (Wings
 * framing with opportunistic batching + credit flow control), serving
 * external blocking clients — the library as an adoptable KV service.
 * Part two shards the key space: a ShardedTcpDeployment of 2×3 replicas
 * behind a slot map negotiated at client HELLO. The deployment then
 * grows a third shard and migrates a key's slot to it, so a client's
 * map goes stale for real and heals through the WrongShard reroute
 * loop. Exits 1 if any read returns the wrong value.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "app/tcp_service.hh"

using namespace hermes;

int
main()
{
    // Every read the walkthrough prints is checked: a wrong value fails
    // the run (exit 1).
    bool correct = true;
    auto checkedRead = [&correct](app::KvClient &client, Key key,
                                  const std::string &want) {
        std::string got = client.read(key).value_or("?");
        if (got != want) {
            std::printf("WRONG VALUE: read '%s', expected '%s'\n",
                        got.c_str(), want.c_str());
            correct = false;
        }
        return got;
    };

    net::TcpConfig tcp;
    tcp.basePort = 19750;
    app::ReplicaOptions options;
    options.maxValueSize = 256;
    options.hermesConfig.mlt = 50_ms;
    app::TcpKvService service(app::Protocol::Hermes, 3, options, tcp);
    service.start();
    std::printf("3 Hermes replicas listening on ports %u, %u, %u\n",
                service.portOf(0), service.portOf(1), service.portOf(2));

    app::KvClient alice(service.portOf(0));
    app::KvClient bob(service.portOf(2));
    if (!alice.connected() || !bob.connected()) {
        std::printf("clients failed to connect\n");
        return 1;
    }

    alice.write(1, "written-via-node-0");
    std::printf("alice wrote key 1 at replica 0\n");
    std::printf("bob reads key 1 at replica 2: '%s'\n",
                checkedRead(bob, 1, "written-via-node-0").c_str());

    bool locked = bob.cas(50, "", "bob").value_or(false);
    bool contended = alice.cas(50, "", "alice").value_or(true);
    std::printf("bob acquires lock: %s; alice's contending CAS: %s\n",
                locked ? "yes" : "no", contended ? "yes?!" : "rejected");

    // A quick closed-loop throughput probe over real sockets.
    constexpr int kOps = 2000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i)
        alice.write(100 + i % 50, "payload-" + std::to_string(i));
    auto elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    std::printf("%d sequential writes over TCP: %.0f ops/s "
                "(%.0f us/op round trip)\n",
                kOps, kOps / elapsed, elapsed / kOps * 1e6);
    std::printf("final read-back: '%s'\n",
                checkedRead(bob, 100 + (kOps - 1) % 50,
                            "payload-" + std::to_string(kOps - 1))
                    .c_str());
    service.stop();
    std::printf("service stopped.\n");

    // ---- Sharded deployment: 2 shards x 3 replicas, one process ----
    std::printf("\nstarting a 2-shard deployment (3 replicas each)...\n");
    tcp.basePort = 19800;
    app::ShardedTcpDeployment deployment(app::Protocol::Hermes, 2, 3,
                                         options, tcp);
    deployment.start();
    for (uint32_t s = 0; s < 2; ++s)
        std::printf("  shard %u on ports %u-%u\n", s,
                    deployment.portOf(s, 0), deployment.portOf(s, 2));

    // A fresh client learns the slot map and the shard -> address map
    // at HELLO and routes every op to the group owning its key.
    app::KvClient carol(deployment.portOf(0, 0));
    const uint32_t owner = deployment.slotMap().ownerOf(7);
    const std::string value = "written-at-shard-" + std::to_string(owner);
    carol.write(7, value);
    std::printf("carol wrote key 7 (owner: shard %u): '%s'\n", owner,
                checkedRead(carol, 7, value).c_str());

    // Grow the deployment behind carol's back: a third shard joins
    // owning no slots, then key 7's slot migrates to it. carol still
    // holds the 2-shard map of epoch 1, so carol's next read of key 7
    // goes to the old owner, which rejects it with WrongShard plus the
    // live map; the client adopts that map and retries at the new owner.
    const uint32_t added = deployment.addShard();
    const size_t moved =
        deployment.migrateSlots({app::slotOfKey(7)}, owner, added);
    std::printf("added shard %u on ports %u-%u and moved %zu slot (key "
                "7's) to it; map epoch now %u\n",
                added, deployment.portOf(added, 0),
                deployment.portOf(added, 2), moved,
                deployment.slotMap().epoch);
    std::printf("carol, still on map epoch %u (key 7 -> shard %u), "
                "reads key 7: ",
                carol.mapEpoch(), carol.routedShard(7));
    const std::string healed = checkedRead(carol, 7, value);
    std::printf("'%s' (healed to epoch %u, S=%zu, key 7 -> shard %u)\n",
                healed.c_str(), carol.mapEpoch(), carol.numShards(),
                carol.routedShard(7));
    deployment.stop();
    std::printf("deployment stopped.\n");
    return correct ? 0 : 1;
}
