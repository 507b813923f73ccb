/**
 * @file
 * TcpCluster: a real-network backend for the same protocol nodes the
 * simulator runs, plus a reproduction of the paper's Wings RPC layer
 * (§4.2) adapted from RDMA UD sends to TCP:
 *
 *  - *Opportunistic batching*: messages to the same peer produced during
 *    one event-loop iteration coalesce into a single framed batch — never
 *    stalling to fill a batch, exactly Wings' policy.
 *  - *Credit-based flow control*: each directed peer link has a fixed
 *    credit window; sending consumes a credit, receivers return credits in
 *    batched explicit credit-update frames, led into the same send as
 *    the receiver's own batch to that peer when it has one (implicit
 *    credits via responses are a degenerate case the protocols get for
 *    free).
 *  - *Broadcast primitive*: a series of unicasts sharing one encoded
 *    payload buffer.
 *  - *Zero-copy value path*: staged frames are scatter/gather
 *    (`WireFrame`) — each per-peer flush writev-gathers fixed fields
 *    and `ValueRef` value buffers directly, and the receive side
 *    decodes out of refcounted slabs that decoded messages alias
 *    (values above kZeroCopyThreshold are never copied between the
 *    socket and the KVS entry).
 *
 *  - *Frames wait only for their log records*: a node whose replica
 *    attached a write-ahead log (Env::attachLog) commits it on a writer
 *    thread; each staged frame carries the last record appended before
 *    it, and a connection's frames leave in FIFO order once the log is
 *    durable that far. Frames the protocol proves independent of the
 *    log (net::NoLogWait) leave in the iteration that staged them.
 *
 * Each node runs one event-loop thread (epoll + timer heap + an
 * injection queue for cross-thread calls, signalled through an eventfd
 * that the log's writer also signals). External clients connect to any
 * node's port and speak the same framing with a client hello.
 */

#ifndef HERMES_NET_TCP_CLUSTER_HH
#define HERMES_NET_TCP_CLUSTER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "net/env.hh"
#include "net/message.hh"

namespace hermes::net
{

/** Identifies an accepted external-client connection on one node. */
using ClientConnId = uint64_t;

/** Per-node hook for frames arriving from external client connections. */
using ClientFrameHandler =
    std::function<void(ClientConnId conn, std::shared_ptr<Message> msg)>;

/**
 * Wire constants of the framing, exported so client implementations
 * outside this translation unit (the pipelined session client) speak
 * the exact bytes the node loops expect instead of duplicating magic
 * numbers: the 12-byte hello is (magic, kind, credits-requested), and
 * every subsequent frame is a u32 length prefix + a kind byte.
 */
constexpr uint32_t kHelloMagic = 0x57494E47; // "WING"
constexpr uint32_t kHelloClient = 1;         // hello kind: client session
constexpr uint8_t kFrameBatch = 0;           // frame kind: message batch

/**
 * Jittered capped exponential backoff for dial retries. A client whose
 * shard is held down must not hammer the dead port with immediate
 * redials: successive failed attempts wait ~5, ~10, ~20 … ms (doubling,
 * jittered by up to the base, capped), so a bounded attempt budget
 * spans a useful wall-clock window while the total number of connect()
 * calls stays small. Every dial attempt in the process — TcpClient,
 * the session client, anything built on them — ticks a process-wide
 * counter the reconnect regression tests assert against.
 */
class DialBackoff
{
  public:
    /** Base delay doubles from kBaseMs up to kCapMs per failure. */
    static constexpr uint32_t kBaseMs = 5;
    static constexpr uint32_t kCapMs = 160;

    explicit DialBackoff(uint64_t seed = 0);

    /** Delay (ms) to sleep before the NEXT attempt; grows each call. */
    uint32_t nextDelayMs();

    /** Process-wide count of connect() attempts (all dialers). */
    static uint64_t dialAttempts();
    /** Zero the process-wide dial-attempt counter (test hook). */
    static void resetDialAttempts();
    /** Tick the process-wide dial-attempt counter. */
    static void noteDialAttempt();

  private:
    uint32_t baseMs_ = kBaseMs;
    uint64_t state_;
};

/**
 * Open a client session to the replica listening on @p port (localhost):
 * up to @p connect_attempts connects paced by a DialBackoff, each one
 * ticking dialAttempts(); then TCP_NODELAY and the 12-byte client hello
 * requesting @p session_credits (0 = the server's default).
 * @return the connected blocking fd, or -1.
 */
int dialClient(uint16_t port, int connect_attempts, uint32_t session_credits);

/**
 * Append @p msg to @p out as one client frame, a batch of one: u32 frame
 * length, kind, u16 count, u32 message length, then the message, encoded
 * in place behind the header, which is patched once the length is known.
 */
void appendClientFrame(const Message &msg, std::vector<uint8_t> &out);

/**
 * Walk the complete frames at the front of @p rx, handing each message
 * of each batch frame to @p visit until it returns false. Messages
 * decode without a pin (values deep-copy out), so the caller may compact
 * @p rx. @return the bytes of the frames walked, the stopping one
 * included: erase them.
 */
size_t walkFrames(const std::vector<uint8_t> &rx,
                  const std::function<bool(std::shared_ptr<Message>)> &visit);

/** Tuning knobs for the Wings-over-TCP layer. */
struct TcpConfig
{
    /** TCP port of node i is basePort + i. */
    uint16_t basePort = 17000;
    /** Credit window per directed peer link (messages in flight). */
    uint32_t creditsPerLink = 256;
    /**
     * Return credits after this many messages received from a peer
     * *within one poll iteration* (a burst-amortization cap). Below it,
     * withheld credits ride on the next frame sent to that peer, or go
     * out alone at a poll boundary once they reach half of
     * creditsPerLink. A partner whose window runs dry has all of it
     * withheld here, so a low-rate link that goes quiescent can never
     * permanently shrink its partner's window.
     */
    uint32_t creditReturnBatch = 64;
    /**
     * Per-client-session credit window: the most requests a session may
     * have in flight (received and not yet replied to) before the
     * server stops reading its socket. 0 disables session flow control.
     * A session's HELLO may request a smaller window; the grant is
     * min(requested, this). Backpressure is by-design TCP: a paused
     * session's bytes stay in the kernel buffers until replies drain,
     * so overload never balloons server-side queues.
     */
    uint32_t clientSessionCredits = 256;
    /**
     * SO_SNDBUF for every mesh/client socket (0 = OS default). Tests
     * shrink this to force partial writev()s and backpressure through
     * the staged-frame tail queue — the re-staging path that must keep
     * gather-mode frames byte-identical.
     */
    int sndbufBytes = 0;
    /**
     * SO_RCVBUF for every mesh/client socket (0 = OS default). Set on
     * the listener before listen() so accepted sockets inherit it at
     * SYN time. Shrinking both buffers bounds a link's total in-flight
     * bytes, making short writev()s deterministic for frames larger
     * than the pair — how the backpressure test guarantees it drives
     * the partial-tail path rather than hoping for scheduler luck.
     */
    int rcvbufBytes = 0;
};

/**
 * A cluster of protocol nodes connected by a localhost TCP mesh. Usable
 * both in-process (tests, examples spin up N node threads) and, with
 * little ceremony, across processes (the framing is self-contained).
 */
class TcpCluster
{
  public:
    TcpCluster(size_t nodes, TcpConfig config = {});
    ~TcpCluster();

    TcpCluster(const TcpCluster &) = delete;
    TcpCluster &operator=(const TcpCluster &) = delete;

    /** Attach the protocol replica for @p id (non-owning). */
    void attach(NodeId id, Node *node);

    /** Set the external-client frame handler for @p id. */
    void setClientHandler(NodeId id, ClientFrameHandler handler);

    /** The Env to construct node @p id 's protocol object with. */
    Env &env(NodeId id);

    /**
     * Bind, connect the mesh, start loops, call Node::start(). Returns
     * once every node routes to every other node (or, should the mesh
     * not close, after kMeshDeadline with a warning): a frame sent
     * right after start() reaches its peer.
     */
    void start();

    /** Stop loops and join threads (idempotent). */
    void stop();

    /**
     * Run @p fn on node @p id 's event-loop thread and wait for it. The
     * only safe way to touch a protocol object from outside its loop.
     */
    void runOn(NodeId id, std::function<void()> fn);

    /** Fire-and-forget variant of runOn(). */
    void post(NodeId id, std::function<void()> fn);

    /**
     * Send a reply frame to an external client connection of node. On
     * the node's own loop thread the frame is staged at once; from any
     * other thread it is posted. Either way it leaves once the node's
     * log is durable up to the frame's stamp (Env::attachLog).
     */
    void replyToClient(NodeId id, ClientConnId conn, const Message &msg);

    /** Simulate a crash: kill node @p id 's loop and close its sockets. */
    void crash(NodeId id);

    /**
     * Restart a crashed node's loop. The listener stayed bound across
     * the crash, so clients can re-dial the same port; the restarted
     * loop re-dials the FULL mesh itself (survivors dialed it once, at
     * their own startup, and never again — they learn the new socket
     * from its peer hello). Attach the replacement protocol replica
     * BEFORE calling; returns once the replica's start() ran and every
     * running node routes to every other over the new sockets (same
     * barrier as start()).
     */
    void restart(NodeId id);

    /** True while node @p id 's loop thread is running. */
    bool running(NodeId id) const;

    /** Node @p id 's life: 0 while its loop is down, otherwise a value
     *  that changes on every crash and restart. */
    uint64_t incarnation(NodeId id) const;

    /**
     * Graceful shutdown: every loop first stops accepting new
     * connections, then runs one final flush (the Env flush —
     * WAL group-commit buffers included — waits until the log is
     * durable, and sends every staged frame) before its thread stops
     * and joins. Terminal: use instead of stop().
     */
    void drain();

    uint16_t portOf(NodeId id) const;

    /**
     * Test-only planted bug: while on, every loop treats its log as
     * durable up to the last record appended, so frames (and a Hermes
     * coordinator's own ACKs) are released before their records reach
     * the disk. The durability tests must catch it.
     */
    static void releaseFramesEarly(bool on);

    /**
     * Process-wide count of gather-mode flushes that ended in a short
     * writev() and re-staged their unwritten tail. The backpressure
     * regression test asserts this moved — proof the small-SO_SNDBUF
     * load actually drove the re-staging path it is checking.
     */
    static uint64_t partialWriteTails();

    /**
     * Granted credit window of an external-client session. Loop-thread
     * only: call from inside the ClientFrameHandler (which runs on the
     * serving node's loop) — it is how the service tells a session its
     * grant in the HELLO reply.
     */
    uint32_t sessionCreditsOf(NodeId id, ClientConnId conn) const;

    /**
     * Process-wide count of poll-boundary peer-credit flushes: credit
     * returns that would have sat below creditReturnBatch on a
     * quiescent link and were pushed out at end of iteration instead.
     * The starvation regression test asserts this moved.
     */
    static uint64_t creditReturnsFlushed();

    /** Process-wide count of client sessions paused for exceeding their
     *  credit window (reading stopped until replies drained). */
    static uint64_t sessionPauses();

    /** High-water mark of any client session's in-flight request count —
     *  the credit-exhaustion test's proof the window actually bounds
     *  server-side state. */
    static uint64_t maxSessionInflight();

    /** Zero the session/credit introspection counters (test hook). */
    static void resetSessionStats();

  private:
    class NodeLoop;

    /** How long start() and restart() wait for the mesh to close. */
    static constexpr std::chrono::seconds kMeshDeadline{10};

    /** The start()/restart() barrier: wait until every running loop
     *  routes to every other running node, or kMeshDeadline passed. */
    void awaitMesh();

    TcpConfig config_;
    std::vector<std::unique_ptr<NodeLoop>> loops_;
    bool started_ = false;
};

/**
 * Raw blocking connection to one replica: sends whatever message it is
 * handed over the client framing and waits for a reply. No routing and
 * no request stamping — tests use it to send hand-stamped frames;
 * applications use app::KvClient / app::KvSessionClient.
 */
class TcpClient
{
  public:
    /**
     * Connect to the replica listening on @p port (localhost).
     *
     * @param connect_attempts dial retries (DialBackoff-paced: jittered
     *        exponential, ~5 ms first gap, capped) before giving up.
     *        The default rides out a service that is still binding; a
     *        small count makes a refused port fail fast.
     * @param session_credits credit window requested in the hello
     *        (0 = accept the server's default). A blocking client has
     *        at most one request in flight, so the default is always
     *        enough.
     */
    explicit TcpClient(uint16_t port, int connect_attempts = 100,
                       uint32_t session_credits = 0);
    ~TcpClient();

    TcpClient(const TcpClient &) = delete;
    TcpClient &operator=(const TcpClient &) = delete;

    /**
     * Issue one request and block for the matching reply.
     *
     * @param expect_req_id when non-zero, ClientReply frames whose reqId
     *        differs are discarded — late replies to an earlier call
     *        that timed out on this socket cannot be mistaken for the
     *        answer to this one.
     */
    std::shared_ptr<Message> call(const Message &request,
                                  DurationNs timeout = 5_s,
                                  uint64_t expect_req_id = 0);

    bool connected() const { return fd_ >= 0; }

  private:
    int fd_;
    std::vector<uint8_t> rxBuf_;
};

} // namespace hermes::net

#endif // HERMES_NET_TCP_CLUSTER_HH
