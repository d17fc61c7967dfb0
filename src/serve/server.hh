/**
 * @file
 * Asynchronous batched frame-serving runtime (DESIGN.md §10).
 *
 * N client threads submit frames through per-client Sessions into one
 * bounded queue; a single dispatcher ServiceThread coalesces queued
 * frames across sessions into batched backend forwards (max-batch +
 * max-wait coalescing) and completes the callers' tickets. Overload is
 * explicit and pluggable: Block (backpressure), DropNewest (load-shed
 * the arrival), DropOldest (evict the stalest queued frame), plus
 * per-request deadlines that expire work still waiting in the queue.
 *
 * Threading model: Sessions and FrameTickets belong to one client
 * thread each; Server::submit / stop / metrics are thread-safe. The
 * batched forward runs on the dispatcher thread and fans out across
 * the util/parallel pool (per-image conv loops, GEMM row panels), so
 * LECA_THREADS scales the compute while the serve layer itself adds
 * only queue handoffs.
 *
 * Memory model: the queue is a fixed ring whose slots recycle their
 * frame buffers, the batch staging buffer is allocated once, tickets
 * are caller-owned, and the kernels run on arena scratch — the
 * steady-state hot path performs no heap allocation in the serve
 * layer, and overload cannot grow memory (the queue never exceeds its
 * capacity, enforced by tests/test_serve.cc under 10x overload).
 *
 * Determinism contract: a response's payload depends only on (server
 * seed, session open order, frame index, frame content, backend) —
 * never on arrival interleaving, batch composition, LECA_THREADS, or
 * coalescing parameters. See session.hh for the Rng-stream half; the
 * backend must be per-image deterministic (pipeline forwards in Soft /
 * Hard modality are; Noisy draws from a shared stream and is not —
 * per-frame sensor noise is instead injected here from the session
 * streams when ServerOptions::injectPixelNoise is set). Which requests
 * get shed or expire under overload is timing-dependent by design;
 * the payload of every completed response is not.
 */

#ifndef LECA_SERVE_SERVER_HH
#define LECA_SERVE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sensor/noise.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/session.hh"
#include "tensor/tensor.hh"
#include "util/mutex.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/thread_annotations.hh"

namespace leca {
class LecaPipeline;
} // namespace leca

namespace leca::serve {

/** What the queue does when a frame arrives at capacity. */
enum class OverloadPolicy
{
    Block,      //!< backpressure: submit blocks until space frees up
    DropNewest, //!< reject the arriving frame with ServeStatus::Shed
    DropOldest  //!< evict the stalest queued frame, admit the arrival
};

/** Terminal state of a submitted frame. */
enum class ServeStatus
{
    Ok,      //!< served; logits are valid
    Shed,    //!< dropped by the overload policy
    Expired, //!< deadline passed while queued
    Closed,  //!< server stopped before the frame was admitted
    Error    //!< the backend threw for this frame's batch
};

/** Completed response; read from FrameTicket::wait(). */
struct FrameResult
{
    ServeStatus status = ServeStatus::Closed;
    std::uint64_t session = 0;
    std::uint64_t frameIndex = 0;

    std::vector<float> logits; //!< [numClasses], Ok only
    int argmax = -1;           //!< argmax of logits, Ok only

    /**
     * Entropy-coded wire payload of this frame (a leca::bitstream
     * container, see DESIGN.md §14). Filled only when
     * ServerOptions::wirePayload is set and the server was built with
     * a WireEncoder; empty otherwise. Sized by the real encoded bytes,
     * so clients can meter the actual sensor-to-host link traffic.
     */
    std::vector<std::uint8_t> wire;

    // Per-stage latency breakdown (nanoseconds; stages that never
    // happened — e.g. batchNanos of a shed frame — stay 0).
    std::int64_t queueNanos = 0; //!< enqueue -> dispatch
    std::int64_t batchNanos = 0; //!< batched forward wall time
    std::int64_t totalNanos = 0; //!< submit -> completion
    int batchSize = 0;           //!< frames in the serving batch
};

/**
 * Caller-owned completion slot for one in-flight frame. Reusable:
 * submit() re-arms it, wait() blocks until the dispatcher (or the
 * overload path) completes it. A ticket must not be destroyed or
 * resubmitted while pending, and belongs to one client thread.
 */
class FrameTicket
{
  public:
    FrameTicket() = default;
    FrameTicket(const FrameTicket &) = delete;
    FrameTicket &operator=(const FrameTicket &) = delete;

    /** Block until completion and return the result. */
    const FrameResult &wait() LECA_EXCLUDES(_mutex);

    /** True when a result is ready (non-blocking). */
    bool done() const LECA_EXCLUDES(_mutex);

  private:
    friend class Server;

    void arm(std::uint64_t session, std::uint64_t frame_index)
        LECA_EXCLUDES(_mutex);

    /**
     * Complete the ticket: run @p fill on the result slot under the
     * lock, then wake the waiter. Templated on the callable so the
     * dispatcher's capture-heavy completion lambdas never round-trip
     * through a heap-allocating std::function — ticket completion is
     * on the per-frame hot path.
     *
     * Notify happens while still holding the lock: the waiter may
     * destroy the ticket the moment wait() returns, and it cannot
     * return before we release the mutex — so notify_all never touches
     * a dead condvar.
     */
    template <typename Fill>
    void
    complete(Fill &&fill) LECA_EXCLUDES(_mutex)
    {
        MutexLock lock(_mutex);
        std::forward<Fill>(fill)(_result);
        _pending = false;
        _ready = true;
        _done.notify_all();
    }

    mutable Mutex _mutex;
    std::condition_variable _done;
    FrameResult _result LECA_GUARDED_BY(_mutex);
    bool _pending LECA_GUARDED_BY(_mutex) = false;
    bool _ready LECA_GUARDED_BY(_mutex) = false;
};

/** Serve-runtime configuration. Every knob is explicit and bounded. */
struct ServerOptions
{
    int queueCapacity = 64;        //!< bounded request queue slots
    int maxBatch = 8;              //!< frames coalesced per forward
    std::int64_t maxWaitMicros = 200; //!< coalescing wait after 1st frame
    OverloadPolicy policy = OverloadPolicy::Block;
    std::uint64_t seed = 1;        //!< root of all session Rng streams

    /**
     * Inject per-frame pixel-array noise (shot + read, Sec. 5.3) from
     * the session streams during staging, modelling each client's
     * sensor capture. Off by default (frames served as submitted).
     */
    bool injectPixelNoise = false;
    SensorConfig sensor; //!< noise model parameters when injecting

    /**
     * Attach each Ok response's entropy-coded wire payload
     * (FrameResult::wire). Requires a WireEncoder at construction.
     * Encoding runs per frame on the dispatcher thread after noise
     * injection, so the payload is exactly what an in-sensor encoder
     * would have transmitted for the frame as served. Off by default
     * (responses carry logits only).
     */
    bool wirePayload = false;

    void validate() const;
};

/**
 * The batched frame server. One instance owns the queue, the
 * dispatcher thread, and the metrics; construction starts the
 * dispatcher, stop() (or destruction) drains and joins it.
 */
class Server
{
  public:
    /** Batched model forward: [N, C, H, W] -> logits [N, K]. */
    using Backend = std::function<Tensor(const Tensor &)>;

    /**
     * Per-frame wire encoder: {C, H, W} frame -> entropy-coded payload
     * bytes appended into @p out (cleared by the caller first). Must be
     * a pure function of the frame content — it runs on the dispatcher
     * thread and its output is part of the determinism contract.
     */
    using WireEncoder =
        std::function<void(const Tensor &frame,
                           std::vector<std::uint8_t> &out)>;

    /**
     * @param backend     per-image-deterministic batched forward
     * @param frame_shape shape of one frame, {C, H, W}
     * @param options     queue/batching/overload configuration
     * @param wire        frame -> wire payload encoder; required when
     *                    options.wirePayload is set, ignored otherwise
     */
    Server(Backend backend, std::vector<int> frame_shape,
           const ServerOptions &options, WireEncoder wire = {});

    /** Stops (drains + joins) if still running; never throws. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Open a new session. Thread-safe, but for bit-reproducible runs
     * open sessions in a fixed order (e.g. all before traffic starts);
     * the session's Rng stream is forked from the server seed in open
     * order. The returned Session belongs to one client thread.
     */
    Session openSession() LECA_EXCLUDES(_sessionMutex);

    /**
     * Submit one frame ({C, H, W}, matching frame_shape) on @p session
     * and arm @p ticket with its completion. @p deadline_micros > 0
     * expires the request if it is still queued that many µs from now.
     * Blocking behaviour at capacity depends on the overload policy;
     * shed/expired/closed submissions complete the ticket immediately
     * with the corresponding status.
     */
    void submit(Session &session, const Tensor &frame, FrameTicket &ticket,
                std::int64_t deadline_micros = 0);

    /**
     * Stop accepting frames, serve everything already queued, join the
     * dispatcher. Safe to call twice. Rethrows a backend exception if
     * the dispatcher died on one (queued tickets are then completed
     * with ServeStatus::Closed, so no client is left hanging).
     */
    void stop() LECA_EXCLUDES(_stopMutex);

    /** Point-in-time copy of all counters and histograms. */
    MetricsSnapshot metrics() const { return _metrics.snapshot(); }

    /** Current queued-request count (racy; for tests and load gens). */
    int queueDepth() const { return _queue.size(); }

    const ServerOptions &options() const { return _options; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One queued frame; slots live in the ring and are recycled. */
    struct Request
    {
        FrameTicket *ticket = nullptr;
        std::vector<float> pixels; //!< frame copy (capacity recycled)
        Rng rng{0};                //!< per-frame session stream
        std::uint64_t session = 0;
        std::uint64_t frameIndex = 0;
        Clock::time_point enqueue{};
        Clock::time_point deadline{}; //!< time_point::max() = none
    };

    /** Dispatcher-side view of one staged frame (pixels already in
     *  the staging buffer). */
    struct Staged
    {
        FrameTicket *ticket = nullptr;
        Rng rng{0};
        std::uint64_t session = 0;
        std::uint64_t frameIndex = 0;
        Clock::time_point enqueue{};
        std::int64_t queueNanos = 0;
    };

    void runDispatcher();
    void dispatchLoop();

    /**
     * Pop + stage up to maxBatch frames, expiring dead ones. Returns
     * the staged count; 0 means closed-and-drained.
     */
    int collectBatch();

    /** Copy a popped request into staging row @p row (queue-locked). */
    void stageRequest(Request &request, int row);

    /** Complete a ticket with a terminal non-Ok status. */
    void completeUnserved(FrameTicket *ticket, ServeStatus status,
                          std::uint64_t session, std::uint64_t frame_index,
                          Clock::time_point enqueue);

    Backend _backend;
    WireEncoder _wire;            //!< empty unless wirePayload is on
    std::vector<int> _frameShape; //!< {C, H, W}
    std::size_t _frameElems;
    ServerOptions _options;
    PixelNoiseModel _noise;

    BoundedQueue<Request> _queue;
    ServeMetrics _metrics;

    Mutex _sessionMutex;
    Rng _sessionRoot LECA_GUARDED_BY(_sessionMutex);
    std::uint64_t _nextSessionId LECA_GUARDED_BY(_sessionMutex) = 0;

    std::vector<float> _staging;  //!< [maxBatch * frameElems], reused
    std::vector<Staged> _staged;  //!< [maxBatch], reused

    /**
     * Borrowed [n, C, H, W] views over _staging for every batch size
     * n in 1..maxBatch, built once in the constructor. _staging never
     * reallocates after construction, so the views stay valid for the
     * server's lifetime and dispatch reuses _batchViews[count - 1]
     * instead of constructing a fresh view (and its shape vector) per
     * batched forward. Dispatcher-only, like _staging itself.
     */
    std::vector<Tensor> _batchViews;

    /**
     * Borrowed {C, H, W} views over each staging row, and the reusable
     * per-row payload buffers the wire encoder fills. Built only when
     * wirePayload is on; dispatcher-only, like _staging.
     */
    std::vector<Tensor> _frameViews;
    std::vector<std::vector<std::uint8_t>> _wireBufs;
    bool _expiredThisCollect = false;

    Mutex _stopMutex;
    bool _stopped LECA_GUARDED_BY(_stopMutex) = false;
    ServiceThread _dispatcher; //!< declared last: joins before members die
};

/** Backend adapter: evaluation-mode forward of a LecaPipeline. */
Server::Backend pipelineBackend(LecaPipeline &pipeline);

/**
 * Backend adapter over int8 block-quantized inference: converts the
 * pipeline's weights with LecaPipeline::quantize() (unless already
 * quantized, e.g. restored via loadQuantized) and serves evaluation
 * forwards through the int8 kernels. Quantization plans the resident
 * activation path (DESIGN.md §13): codes stay int8 between quantized
 * layers and fp32 appears only at planned precision boundaries. Same
 * contract as pipelineBackend: responses are bit-identical across
 * thread counts and batch splits.
 */
Server::Backend quantizedPipelineBackend(LecaPipeline &pipeline);

/**
 * Wire-encoder adapter over a trained pipeline: runs the encoder
 * (evaluation-mode encodeFeatures), recovers the integer feature codes
 * from the quantized [-1, 1] grid, and entropy-codes them into a
 * leca::bitstream byte-stream container (DESIGN.md §14). The payload
 * decodes bit-exactly to the feature codes via
 * bitstream::decodeByteStream, so FrameResult::wire carries the real
 * sensor-link byte count for the frame.
 */
Server::WireEncoder pipelineWireEncoder(LecaPipeline &pipeline);

} // namespace leca::serve

#endif // LECA_SERVE_SERVER_HH
