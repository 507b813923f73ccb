/**
 * @file
 * The calibrated CPU/network cost model shared by all simulated benchmarks.
 *
 * The paper evaluates on 7 machines with two 10-core Xeons and 56Gb
 * InfiniBand (§5.2). Reproducing the *shape* of its throughput/latency
 * results requires modelling exactly the resources the protocols contend
 * for: per-node worker CPU (message handling, request decode, KVS access,
 * send posting) and network propagation/transmission time. The defaults
 * below are calibrated so that the simulated read-only capacity and the
 * read/write cost ratio land in the same regime as the paper's testbed;
 * every bench takes the model as a parameter so reviewers can recalibrate.
 */

#ifndef HERMES_SIM_COST_MODEL_HH
#define HERMES_SIM_COST_MODEL_HH

#include <cstddef>

#include "common/random.hh"
#include "common/types.hh"

namespace hermes::sim
{

/**
 * Cost parameters for the simulated cluster. All times in nanoseconds.
 */
struct CostModel
{
    // ---- Network ----
    /** One-way propagation + switch + NIC base latency. */
    DurationNs netBaseNs = 1100;
    /** Mean of the exponential jitter added to every hop. */
    DurationNs netJitterNs = 250;
    /** Transmission time per wire byte (56Gb/s ~ 0.14 ns/B). */
    double netPerByteNs = 0.15;

    // ---- Per-node CPU ----
    /** Worker threads per node (paper: 20 cores/node). */
    unsigned workerThreads = 20;
    /** Handling cost of one received protocol message. */
    DurationNs recvBaseNs = 140;
    /** Extra receive cost per payload byte (copy + checksum). */
    double recvPerByteNs = 0.05;
    /** Cost of posting one send (work request + doorbell). */
    DurationNs sendBaseNs = 90;
    /** Extra send cost per payload byte. */
    double sendPerByteNs = 0.05;
    /**
     * Marginal cost of each additional copy in a broadcast. Wings posts a
     * broadcast as a linked list of work requests sharing one payload and
     * one doorbell (§4.2), so extra copies are much cheaper than
     * independent sends.
     */
    DurationNs broadcastPerExtraCopyNs = 30;
    /** Client request decode + reply formatting. */
    DurationNs clientOpNs = 60;
    /** One KVS access (hash + seqlock + copy for 32B objects). */
    DurationNs kvsOpNs = 70;

    /**
     * When true, a broadcast charges the sender a single sendBaseNs
     * regardless of fan-out (models NIC multicast offload; the paper gives
     * rZAB RDMA multicast, §5.1.1). Per-byte cost is still paid once.
     */
    bool multicastOffload = false;

    // ---- Per-peer message coalescing (sim/runtime.hh) ----
    //
    // The software analogue of Wings' one-doorbell broadcast posting
    // (§4.2): a node's messages coalesce per destination and each window
    // departs as one delivery, paying the base send/recv cost once plus
    // a per-message marginal — the shape of broadcastPerExtraCopyNs, but
    // across *different* messages to the same peer. The caps are signed
    // on purpose: any non-positive value (or maxBatchMsgs <= 1) turns
    // coalescing off rather than wrapping to an unbounded window.

    /** Messages per destination window; <= 1 turns coalescing off. */
    int maxBatchMsgs = 16;
    /** Wire bytes per destination window; <= 0 turns coalescing off. */
    long maxBatchBytes = 16384;
    /**
     * Marginal posting cost of each additional message riding an already
     * posted batch (they share the doorbell; only the descriptor is new).
     */
    DurationNs batchPerMsgSendNs = 25;
    /**
     * Marginal dispatch cost of each additional message in a received
     * batch (header parse + handler dispatch, no fresh completion event).
     */
    DurationNs batchPerMsgRecvNs = 60;

    // ---- Zero-copy value path (common/value_ref.hh, net/tcp_cluster) ----
    //
    // The RDMA data path the paper rides moves values without software
    // copies; the reproduction's wire path does the same by default
    // (scatter/gather encode, slab-aliasing decode, one memcpy into the
    // KVS entry under the seqlock). The knob below lets the ablation
    // bench charge what the legacy copy path cost instead: per hop, the
    // copy path touched the value two extra times on the send side
    // (message construction + encode into the frame) and two extra times
    // on the receive side (frame body staging + decode into a string).

    /**
     * Per-byte CPU cost of one software copy of value payload
     * (cache-disturbing small-block memcpy, not streaming bandwidth).
     */
    double copyPerByteNs = 0.2;
    /**
     * Zero-copy value path on (default): encode/decode alias value
     * buffers and no per-copy charge applies. Off = charge the legacy
     * copy path's extra copies, for the ablation sweep.
     */
    bool zeroCopy = true;
    /** Extra value copies per send (msg construction + frame encode). */
    unsigned copiesOnSend = 2;
    /** Extra value copies per receive (body staging + string decode). */
    unsigned copiesOnRecv = 2;

    /** Sender-side copy charge for @p value_bytes of value payload. */
    DurationNs
    sendCopyCost(size_t value_bytes) const
    {
        if (zeroCopy || value_bytes == 0)
            return 0;
        return static_cast<DurationNs>(copiesOnSend * copyPerByteNs
                                       * value_bytes);
    }

    /** Receiver-side copy charge for @p value_bytes of value payload. */
    DurationNs
    recvCopyCost(size_t value_bytes) const
    {
        if (zeroCopy || value_bytes == 0)
            return 0;
        return static_cast<DurationNs>(copiesOnRecv * copyPerByteNs
                                       * value_bytes);
    }

    // ---- Durability (store/wal.hh) ----
    //
    // Charged only when a replica runs with a WAL attached (the handle
    // forwards them through the Wal's charge hook), so default
    // non-durable sim histories stay byte-identical — the same ablation
    // discipline as the zero-copy knobs above.

    /** CPU cost per WAL byte staged (CRC + framing + buffer append). */
    double walAppendPerByteNs = 0.2;
    /**
     * One fsync's latency charged to the flushing worker. 20 µs models
     * an enterprise NVMe write-cache flush; spinning rust would be three
     * orders worse and is not what the paper's testbed would deploy.
     */
    DurationNs fsyncNs = 20000;

    /** Service time to receive a message of @p wire_bytes. */
    DurationNs
    recvCost(size_t wire_bytes) const
    {
        return recvBaseNs
               + static_cast<DurationNs>(recvPerByteNs * wire_bytes);
    }

    /** Sender-side CPU to post one send of @p wire_bytes. */
    DurationNs
    sendCost(size_t wire_bytes) const
    {
        return sendBaseNs
               + static_cast<DurationNs>(sendPerByteNs * wire_bytes);
    }

    /** Sender-side CPU for a @p fanout -way broadcast of one payload. */
    DurationNs
    broadcastCost(size_t wire_bytes, size_t fanout) const
    {
        if (fanout == 0)
            return 0;
        if (multicastOffload)
            return sendCost(wire_bytes);
        // First copy pays full posting; the rest ride the same doorbell.
        return sendCost(wire_bytes)
               + (fanout - 1)
                     * (broadcastPerExtraCopyNs
                        + static_cast<DurationNs>(sendPerByteNs
                                                  * wire_bytes));
    }

    /**
     * Sender-side CPU to post one @p batched_msgs -message batch of
     * @p wire_bytes total: one base posting plus a per-message marginal.
     * Degenerates to sendCost() for batches of zero or one message.
     */
    DurationNs
    batchedSendCost(size_t wire_bytes, size_t batched_msgs) const
    {
        if (batched_msgs <= 1)
            return sendCost(wire_bytes);
        return sendBaseNs + (batched_msgs - 1) * batchPerMsgSendNs
               + static_cast<DurationNs>(sendPerByteNs * wire_bytes);
    }

    /**
     * Service time to receive a @p batched_msgs -message batch of
     * @p wire_bytes total: one base dispatch plus a per-message marginal.
     * Degenerates to recvCost() for batches of zero or one message.
     */
    DurationNs
    batchedRecvCost(size_t wire_bytes, size_t batched_msgs) const
    {
        if (batched_msgs <= 1)
            return recvCost(wire_bytes);
        return recvBaseNs + (batched_msgs - 1) * batchPerMsgRecvNs
               + static_cast<DurationNs>(recvPerByteNs * wire_bytes);
    }

    /** Sample the one-way network delay for @p wire_bytes. */
    DurationNs
    netDelay(Rng &rng, size_t wire_bytes) const
    {
        auto jitter = static_cast<DurationNs>(
            rng.nextExponential(static_cast<double>(netJitterNs)));
        auto tx = static_cast<DurationNs>(netPerByteNs * wire_bytes);
        return netBaseNs + jitter + tx;
    }
};

} // namespace hermes::sim

#endif // HERMES_SIM_COST_MODEL_HH
