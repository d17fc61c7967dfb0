/**
 * @file
 * Tests for leca::serve (DESIGN.md §10): the bounded queue primitive,
 * the latency histograms, and the server itself — bit-identical
 * responses for a fixed request trace across LECA_THREADS, client
 * interleavings, and batch coalescing; backpressure at capacity;
 * DropNewest / DropOldest / deadline-expiry rejection; clean shutdown
 * with in-flight requests; and bounded queue memory under 10x
 * overload.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bitstream/codec.hh"
#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "nn/quantize.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "util/alloc_guard.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca::serve {
namespace {

// ---- BoundedQueue --------------------------------------------------------

TEST(BoundedQueue, TryPushRejectsAtCapacity)
{
    BoundedQueue<int> q(2);
    EXPECT_EQ(q.tryPush([](int &slot) { slot = 1; }), PushOutcome::Ok);
    EXPECT_EQ(q.tryPush([](int &slot) { slot = 2; }), PushOutcome::Ok);
    EXPECT_EQ(q.tryPush([](int &slot) { slot = 3; }), PushOutcome::Full);
    EXPECT_EQ(q.size(), 2);

    int got = 0;
    EXPECT_TRUE(q.popBlocking([&](int &slot) { got = slot; }));
    EXPECT_EQ(got, 1); // FIFO
    EXPECT_EQ(q.tryPush([](int &slot) { slot = 3; }), PushOutcome::Ok);
}

TEST(BoundedQueue, EvictOldestKeepsNewest)
{
    BoundedQueue<int> q(2);
    (void)q.tryPush([](int &slot) { slot = 1; });
    (void)q.tryPush([](int &slot) { slot = 2; });
    int evicted = 0;
    EXPECT_EQ(q.pushEvictOldest([](int &slot) { slot = 3; },
                                [&](int &slot) { evicted = slot; }),
              PushOutcome::Evicted);
    EXPECT_EQ(evicted, 1);
    EXPECT_EQ(q.size(), 2);

    std::vector<int> drained;
    while (q.size() > 0)
        (void)q.popBlocking([&](int &slot) { drained.push_back(slot); });
    EXPECT_EQ(drained, (std::vector<int>{2, 3}));
}

TEST(BoundedQueue, CloseDrainsThenReportsClosed)
{
    BoundedQueue<int> q(4);
    (void)q.tryPush([](int &slot) { slot = 7; });
    q.close();
    EXPECT_EQ(q.tryPush([](int &slot) { slot = 8; }),
              PushOutcome::Closed);
    EXPECT_EQ(q.pushBlocking([](int &slot) { slot = 9; }),
              PushOutcome::Closed);
    int got = 0;
    EXPECT_TRUE(q.popBlocking([&](int &slot) { got = slot; }));
    EXPECT_EQ(got, 7);
    EXPECT_FALSE(q.popBlocking([](int &) {}));
}

TEST(BoundedQueue, RejectsNonPositiveCapacity)
{
    EXPECT_THROW(BoundedQueue<int>(0), CheckError);
}

// ---- LatencyHistogram ----------------------------------------------------

TEST(LatencyHistogram, BucketsAreMonotone)
{
    std::int64_t prev = -1;
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const std::int64_t lo = LatencyHistogram::bucketLowerBound(b);
        EXPECT_GE(lo, prev);
        prev = lo;
    }
    // Every value lands in a bucket whose range contains it.
    for (std::int64_t v : {0LL, 1LL, 2LL, 3LL, 17LL, 1000LL, 123456789LL}) {
        const int b = LatencyHistogram::bucketOf(v);
        EXPECT_LE(LatencyHistogram::bucketLowerBound(b), v);
        if (b + 1 < LatencyHistogram::kBuckets) {
            EXPECT_GT(LatencyHistogram::bucketLowerBound(b + 1), v);
        }
    }
}

TEST(LatencyHistogram, CountsMeanAndQuantiles)
{
    LatencyHistogram h;
    for (int i = 1; i <= 100; ++i)
        h.record(i * 1000);
    const HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 100);
    EXPECT_EQ(snap.minValue, 1000);
    EXPECT_EQ(snap.maxValue, 100000);
    EXPECT_NEAR(snap.mean, 50500.0, 1e-6);
    const double p50 = snap.quantile(0.50);
    const double p99 = snap.quantile(0.99);
    EXPECT_GE(p50, snap.minValue);
    EXPECT_LE(p50, snap.maxValue);
    EXPECT_GE(p99, p50);
    // Log-spaced buckets: p50 within a bucket width (25%) of the truth.
    EXPECT_NEAR(p50, 50500.0, 0.25 * 50500.0);
    EXPECT_NEAR(p99, 99010.0, 0.25 * 99010.0);
}

TEST(LatencyHistogram, EmptyQuantileIsZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);
    EXPECT_EQ(h.snapshot().count, 0);
}

// ---- Server fixtures -----------------------------------------------------

constexpr int kHw = 16;
constexpr int kClasses = 4;

/** Deterministic synthetic frame, unique per (session, frame). */
Tensor
makeFrame(std::uint64_t session, std::uint64_t frame)
{
    Tensor t({3, kHw, kHw});
    float *p = t.data();
    for (std::size_t i = 0; i < t.numel(); ++i) {
        const auto x = static_cast<float>(
            (session * 131 + frame * 17 + i * 7) % 256);
        p[i] = x / 255.0f;
    }
    return t;
}

std::unique_ptr<LecaPipeline>
makeTinyPipeline()
{
    LecaConfig cfg;
    cfg.nch = 4;
    cfg.qbits = QBits(3.0);
    cfg.decoderDncnnLayers = 1;
    cfg.decoderFilters = 8;
    Rng rng(3);
    auto backbone = makeBackbone(BackboneStyle::Proxy, 3, kClasses, rng);
    LecaPipeline::Options options;
    options.leca = cfg;
    options.seed = 21;
    return std::make_unique<LecaPipeline>(options, std::move(backbone));
}

/**
 * A backend the test can stall: forwards block until release() and
 * return per-image logits derived from each frame's first pixel.
 */
class GatedBackend
{
  public:
    Server::Backend
    fn()
    {
        return [this](const Tensor &batch) {
            {
                std::unique_lock<std::mutex> lock(_mutex);
                _open.wait(lock, [this] { return _released; });
            }
            _calls.fetch_add(1);
            const int n = batch.size(0);
            const std::size_t per = batch.numel()
                                    / static_cast<std::size_t>(n);
            Tensor logits({n, 2});
            for (int i = 0; i < n; ++i) {
                const float v =
                    batch.data()[static_cast<std::size_t>(i) * per];
                logits.data()[i * 2 + 0] = v;
                logits.data()[i * 2 + 1] = -v;
            }
            return logits;
        };
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _released = true;
        _open.notify_all();
    }

    int calls() const { return _calls.load(); }

  private:
    std::mutex _mutex;
    std::condition_variable _open;
    bool _released = false;
    std::atomic<int> _calls{0};
};

/** Poll until the dispatcher has drained the queue (short timeout). */
void
awaitQueueEmpty(Server &server)
{
    for (int i = 0; i < 20000 && server.queueDepth() > 0; ++i)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    ASSERT_EQ(server.queueDepth(), 0);
}

// ---- Determinism ---------------------------------------------------------

using TraceKey = std::pair<std::uint64_t, std::uint64_t>;
using TraceResult = std::map<TraceKey, std::vector<float>>;

/**
 * Run the canonical request trace — 3 sessions x 5 frames, per-frame
 * sensor noise on — and collect every response's logits. @p clients
 * picks how the trace is driven: 0 = one thread, round-robin
 * interleaving; otherwise one ServiceThread per session, arrival order
 * left to the scheduler.
 */
TraceResult
runTrace(int threads, int max_batch, std::int64_t max_wait_micros,
         int clients)
{
    constexpr int kSessions = 3, kFrames = 5;
    setThreadCount(threads);
    auto pipeline = makeTinyPipeline();

    ServerOptions options;
    options.queueCapacity = 32;
    options.maxBatch = max_batch;
    options.maxWaitMicros = max_wait_micros;
    options.policy = OverloadPolicy::Block;
    options.seed = 7;
    options.injectPixelNoise = true;
    Server server(pipelineBackend(*pipeline), {3, kHw, kHw}, options);

    std::vector<Session> sessions;
    sessions.reserve(kSessions);
    for (int s = 0; s < kSessions; ++s)
        sessions.push_back(server.openSession());

    TraceResult results;
    std::mutex results_mutex;
    const auto record = [&](const FrameResult &r) {
        LECA_CHECK(r.status == ServeStatus::Ok,
                   "trace frame not served (status ",
                   static_cast<int>(r.status), ")");
        std::lock_guard<std::mutex> lock(results_mutex);
        results[{r.session, r.frameIndex}] = r.logits;
    };

    if (clients == 0) {
        FrameTicket ticket;
        for (int f = 0; f < kFrames; ++f)
            for (int s = 0; s < kSessions; ++s) {
                server.submit(sessions[static_cast<std::size_t>(s)],
                              makeFrame(static_cast<std::uint64_t>(s),
                                        static_cast<std::uint64_t>(f)),
                              ticket);
                record(ticket.wait());
            }
    } else {
        std::vector<ServiceThread> drivers(kSessions);
        for (int s = 0; s < kSessions; ++s)
            drivers[static_cast<std::size_t>(s)].start([&, s] {
                FrameTicket ticket;
                for (int f = 0; f < kFrames; ++f) {
                    server.submit(
                        sessions[static_cast<std::size_t>(s)],
                        makeFrame(static_cast<std::uint64_t>(s),
                                  static_cast<std::uint64_t>(f)),
                        ticket);
                    record(ticket.wait());
                }
            });
        for (auto &driver : drivers)
            driver.join();
    }
    server.stop();
    return results;
}

class ServeDeterminism : public ::testing::Test
{
  protected:
    void SetUp() override { _saved = threadCount(); }
    void TearDown() override { setThreadCount(_saved); }
    int _saved = 1;
};

TEST_F(ServeDeterminism, BitIdenticalAcrossThreadsBatchesAndClients)
{
    // Reference: serial client, no coalescing, one worker thread.
    const TraceResult reference = runTrace(1, 1, 0, 0);
    ASSERT_EQ(reference.size(), 15u);
    for (const auto &[key, logits] : reference)
        ASSERT_EQ(logits.size(), static_cast<std::size_t>(kClasses))
            << "session " << key.first << " frame " << key.second;

    struct Config
    {
        int threads, maxBatch, clients;
        std::int64_t waitMicros;
    };
    const Config configs[] = {
        {2, 4, 0, 500},  // coalescing, serial client
        {4, 8, 3, 1000}, // full coalescing, concurrent clients
        {8, 2, 3, 200},  // small batches, concurrent clients
        {1, 8, 3, 1000}, // single worker, concurrent clients
    };
    for (const Config &cfg : configs) {
        const TraceResult got = runTrace(cfg.threads, cfg.maxBatch,
                                         cfg.waitMicros, cfg.clients);
        ASSERT_EQ(got.size(), reference.size())
            << "threads=" << cfg.threads << " maxBatch=" << cfg.maxBatch;
        for (const auto &[key, logits] : reference) {
            const auto it = got.find(key);
            ASSERT_NE(it, got.end());
            // Bit-identical, not approximately equal.
            EXPECT_EQ(it->second, logits)
                << "session " << key.first << " frame " << key.second
                << " diverged at threads=" << cfg.threads
                << " maxBatch=" << cfg.maxBatch
                << " clients=" << cfg.clients;
        }
    }
}

// ---- Overload policies ---------------------------------------------------

TEST(Serve, BlockPolicyBoundsQueueAndBlocksProducer)
{
    GatedBackend gate;
    ServerOptions options;
    options.queueCapacity = 2;
    options.maxBatch = 1;
    options.maxWaitMicros = 0;
    options.policy = OverloadPolicy::Block;
    Server server(gate.fn(), {3, kHw, kHw}, options);
    Session session = server.openSession();

    constexpr int kTotal = 6;
    std::vector<FrameTicket> tickets(kTotal);
    std::atomic<int> submitted{0};
    ServiceThread producer;
    producer.start([&] {
        for (int i = 0; i < kTotal; ++i) {
            server.submit(session,
                          makeFrame(0, static_cast<std::uint64_t>(i)),
                          tickets[static_cast<std::size_t>(i)]);
            submitted.fetch_add(1);
        }
    });

    // Backend gated shut: dispatcher stages one frame, the queue holds
    // two more, and the fourth submit must block.
    const auto deadline = std::chrono::steady_clock::now()
                          + std::chrono::seconds(5);
    while (submitted.load() < 3
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(submitted.load(), 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(submitted.load(), 3); // still blocked
    EXPECT_LE(server.queueDepth(), options.queueCapacity);

    gate.release();
    producer.join();
    server.stop();
    for (auto &ticket : tickets)
        EXPECT_EQ(ticket.wait().status, ServeStatus::Ok);
    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.submitted, kTotal);
    EXPECT_EQ(m.completed, kTotal);
    EXPECT_EQ(m.shed, 0);
    EXPECT_LE(m.maxQueueDepth, options.queueCapacity);
}

TEST(Serve, DropNewestShedsArrivalsAtCapacity)
{
    GatedBackend gate;
    ServerOptions options;
    options.queueCapacity = 1;
    options.maxBatch = 1;
    options.maxWaitMicros = 0;
    options.policy = OverloadPolicy::DropNewest;
    Server server(gate.fn(), {3, kHw, kHw}, options);
    Session session = server.openSession();

    // First frame is staged by the dispatcher (and stalls in the
    // backend); second fills the queue; the rest must shed instantly.
    std::vector<FrameTicket> tickets(5);
    server.submit(session, makeFrame(0, 0), tickets[0]);
    awaitQueueEmpty(server); // frame 0 staged, backend stalled
    server.submit(session, makeFrame(0, 1), tickets[1]);
    for (int i = 2; i < 5; ++i) {
        server.submit(session,
                      makeFrame(0, static_cast<std::uint64_t>(i)),
                      tickets[static_cast<std::size_t>(i)]);
        const FrameResult &r =
            tickets[static_cast<std::size_t>(i)].wait();
        EXPECT_EQ(r.status, ServeStatus::Shed);
        EXPECT_EQ(r.argmax, -1);
        EXPECT_TRUE(r.logits.empty());
    }

    gate.release();
    server.stop();
    EXPECT_EQ(tickets[0].wait().status, ServeStatus::Ok);
    EXPECT_EQ(tickets[1].wait().status, ServeStatus::Ok);
    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.submitted, 5);
    EXPECT_EQ(m.completed, 2);
    EXPECT_EQ(m.shed, 3);
}

TEST(Serve, DropOldestEvictsStalestQueuedFrame)
{
    GatedBackend gate;
    ServerOptions options;
    options.queueCapacity = 1;
    options.maxBatch = 1;
    options.maxWaitMicros = 0;
    options.policy = OverloadPolicy::DropOldest;
    Server server(gate.fn(), {3, kHw, kHw}, options);
    Session session = server.openSession();

    FrameTicket a, b, c;
    server.submit(session, makeFrame(0, 0), a);
    awaitQueueEmpty(server); // frame 0 staged, backend stalled
    server.submit(session, makeFrame(0, 1), b); // queued
    server.submit(session, makeFrame(0, 2), c); // evicts frame 1
    const FrameResult &shed = b.wait();
    EXPECT_EQ(shed.status, ServeStatus::Shed);
    EXPECT_EQ(shed.frameIndex, 1u);

    gate.release();
    server.stop();
    EXPECT_EQ(a.wait().status, ServeStatus::Ok);
    EXPECT_EQ(c.wait().status, ServeStatus::Ok);
    EXPECT_EQ(server.metrics().shed, 1);
}

TEST(Serve, DeadlineExpiresQueuedWork)
{
    GatedBackend gate;
    ServerOptions options;
    options.queueCapacity = 4;
    options.maxBatch = 1;
    options.maxWaitMicros = 0;
    options.policy = OverloadPolicy::Block;
    Server server(gate.fn(), {3, kHw, kHw}, options);
    Session session = server.openSession();

    FrameTicket first, doomed;
    server.submit(session, makeFrame(0, 0), first);
    awaitQueueEmpty(server); // dispatcher stalled in the backend
    server.submit(session, makeFrame(0, 1), doomed, /*deadline_micros=*/
                  1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    gate.release(); // dispatcher resumes and finds the deadline passed
    const FrameResult &r = doomed.wait();
    EXPECT_EQ(r.status, ServeStatus::Expired);
    EXPECT_EQ(r.argmax, -1);
    EXPECT_GT(r.totalNanos, 0);
    server.stop();
    EXPECT_EQ(first.wait().status, ServeStatus::Ok);
    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.expired, 1);
    EXPECT_EQ(m.completed, 1);
}

// ---- Shutdown ------------------------------------------------------------

TEST(Serve, StopServesQueuedFramesThenRejectsNewOnes)
{
    ServerOptions options;
    options.queueCapacity = 32;
    options.maxBatch = 4;
    options.maxWaitMicros = 100;
    Server server([](const Tensor &batch) {
        Tensor logits({batch.size(0), 2});
        for (std::size_t i = 0; i < logits.numel(); ++i)
            logits.data()[i] = static_cast<float>(i);
        return logits;
    }, {3, kHw, kHw}, options);
    Session session = server.openSession();

    constexpr int kInFlight = 10;
    std::vector<FrameTicket> tickets(kInFlight);
    for (int i = 0; i < kInFlight; ++i)
        server.submit(session,
                      makeFrame(0, static_cast<std::uint64_t>(i)),
                      tickets[static_cast<std::size_t>(i)]);
    server.stop(); // drains the queue: every in-flight frame is served
    for (auto &ticket : tickets)
        EXPECT_EQ(ticket.wait().status, ServeStatus::Ok);

    FrameTicket late;
    server.submit(session, makeFrame(0, kInFlight), late);
    EXPECT_EQ(late.wait().status, ServeStatus::Closed);
    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.completed, kInFlight);
    EXPECT_EQ(m.rejectedClosed, 1);
    server.stop(); // idempotent
}

TEST(Serve, BackendExceptionReportsErrorAndUnblocksClients)
{
    ServerOptions options;
    options.queueCapacity = 8;
    options.maxBatch = 1;
    options.maxWaitMicros = 0;
    Server server([](const Tensor &) -> Tensor {
        throw std::runtime_error("backend died");
    }, {3, kHw, kHw}, options);
    Session session = server.openSession();

    FrameTicket ticket;
    server.submit(session, makeFrame(0, 0), ticket);
    const ServeStatus status = ticket.wait().status;
    EXPECT_TRUE(status == ServeStatus::Error
                || status == ServeStatus::Closed);
    EXPECT_THROW(server.stop(), std::runtime_error);
}

// ---- Overload stays bounded ----------------------------------------------

TEST(Serve, TenfoldOverloadShedsInsteadOfGrowing)
{
    ServerOptions options;
    options.queueCapacity = 8;
    options.maxBatch = 4;
    options.maxWaitMicros = 100;
    options.policy = OverloadPolicy::DropOldest;
    Server server([](const Tensor &batch) {
        // Slow enough that 2 fast producers overrun a capacity-8 queue
        // by far more than 10x over the run.
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        Tensor logits({batch.size(0), 2});
        for (std::size_t i = 0; i < logits.numel(); ++i)
            logits.data()[i] = 0.0f;
        return logits;
    }, {3, kHw, kHw}, options);

    constexpr int kProducers = 2, kPerProducer = 120;
    std::vector<Session> sessions;
    for (int p = 0; p < kProducers; ++p)
        sessions.push_back(server.openSession());

    // Open loop: every producer fires its whole trace without waiting
    // for responses, far outrunning the slow backend.
    std::atomic<int> max_depth{0};
    std::vector<std::vector<FrameTicket>> tickets(kProducers);
    for (auto &per_producer : tickets)
        per_producer = std::vector<FrameTicket>(kPerProducer);
    std::vector<ServiceThread> producers(kProducers);
    for (int p = 0; p < kProducers; ++p)
        producers[static_cast<std::size_t>(p)].start([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                server.submit(sessions[static_cast<std::size_t>(p)],
                              makeFrame(static_cast<std::uint64_t>(p),
                                        static_cast<std::uint64_t>(i)),
                              tickets[static_cast<std::size_t>(p)]
                                     [static_cast<std::size_t>(i)]);
                const int depth = server.queueDepth();
                int seen = max_depth.load();
                while (depth > seen
                       && !max_depth.compare_exchange_weak(seen, depth)) {
                }
            }
        });
    for (auto &producer : producers)
        producer.join();
    // Every ticket resolves (Ok or Shed) before the queue quiesces.
    for (auto &per_producer : tickets)
        for (auto &ticket : per_producer)
            (void)ticket.wait();
    server.stop();

    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.submitted, kProducers * kPerProducer);
    // Conservation: every submission reached exactly one terminal state.
    EXPECT_EQ(m.submitted, m.completed + m.shed + m.expired
                               + m.rejectedClosed + m.errored);
    EXPECT_GT(m.shed, 0); // overload surfaced as load shedding...
    EXPECT_LE(m.maxQueueDepth, options.queueCapacity); // ...not growth
    EXPECT_LE(max_depth.load(), options.queueCapacity);
}

// ---- Wire payloads -------------------------------------------------------

/** Integer feature codes the pipeline's encoder emits for one frame. */
std::vector<std::uint8_t>
encoderCodes(LecaPipeline &pipeline, const Tensor &frame)
{
    const Tensor batch = Tensor::borrow(
        {1, frame.size(0), frame.size(1), frame.size(2)}, frame.data());
    const Tensor features = pipeline.encodeFeatures(batch, Mode::Eval);
    const int levels = pipeline.encoder().qbits().levels();
    std::vector<std::uint8_t> codes(features.numel());
    for (std::size_t i = 0; i < codes.size(); ++i)
        codes[i] = static_cast<std::uint8_t>(
            quantizeCode(features.data()[i], -1.0f, 1.0f, levels));
    return codes;
}

/** The fp32 backend, or the int8 one (which quantize()s @p pipeline). */
Server::Backend
backendFor(LecaPipeline &pipeline, bool int8)
{
    return int8 ? quantizedPipelineBackend(pipeline)
                : pipelineBackend(pipeline);
}

TEST(Serve, WirePayloadDecodesToEncoderCodes)
{
    for (const bool int8 : {false, true}) {
        SCOPED_TRACE(int8 ? "int8 pipeline" : "fp32 pipeline");
        auto pipeline = makeTinyPipeline();
        ServerOptions options;
        options.queueCapacity = 16;
        options.maxBatch = 1;
        options.maxWaitMicros = 0;
        options.wirePayload = true;
        Server server(backendFor(*pipeline, int8), {3, kHw, kHw}, options,
                      pipelineWireEncoder(*pipeline));
        Session session = server.openSession();

        FrameTicket ticket;
        for (int f = 0; f < 4; ++f) {
            const Tensor frame =
                makeFrame(0, static_cast<std::uint64_t>(f));
            server.submit(session, frame, ticket);
            const FrameResult &r = ticket.wait();
            ASSERT_EQ(r.status, ServeStatus::Ok);
            ASSERT_FALSE(r.wire.empty());

            // The payload is a leca::bitstream container that decodes
            // bit-exactly to the encoder's integer feature codes...
            const std::vector<std::uint8_t> expected =
                encoderCodes(*pipeline, frame);
            const std::vector<std::uint8_t> decoded =
                bitstream::decodeByteStream(r.wire.data(), r.wire.size());
            EXPECT_EQ(decoded, expected);
            // ...and it is entropy-coded: the 3-bit codes cost less on
            // the wire than one byte per symbol.
            EXPECT_LT(r.wire.size(), expected.size());
        }
        server.stop();
    }
}

TEST(Serve, WirePayloadIsInvariantToBatchComposition)
{
    // Encode the canonical trace through two servers whose coalescing
    // differs (serial singles vs full batches); every frame's wire
    // bytes must match exactly — batch composition cannot leak into
    // the payload.
    for (const bool int8 : {false, true}) {
        SCOPED_TRACE(int8 ? "int8 pipeline" : "fp32 pipeline");
        auto pipeline = makeTinyPipeline();
        const auto collect = [&](int max_batch, std::int64_t wait_micros) {
            ServerOptions options;
            options.queueCapacity = 32;
            options.maxBatch = max_batch;
            options.maxWaitMicros = wait_micros;
            options.wirePayload = true;
            Server server(backendFor(*pipeline, int8), {3, kHw, kHw},
                          options, pipelineWireEncoder(*pipeline));
            Session session = server.openSession();

            constexpr int kFrames = 8;
            std::vector<FrameTicket> tickets(kFrames);
            for (int f = 0; f < kFrames; ++f)
                server.submit(session,
                              makeFrame(0, static_cast<std::uint64_t>(f)),
                              tickets[static_cast<std::size_t>(f)]);
            std::vector<std::vector<std::uint8_t>> wires;
            for (auto &ticket : tickets) {
                const FrameResult &r = ticket.wait();
                EXPECT_EQ(r.status, ServeStatus::Ok);
                wires.push_back(r.wire);
            }
            server.stop();
            return wires;
        };

        const auto singles = collect(1, 0);
        const auto batched = collect(8, 2000);
        ASSERT_EQ(singles.size(), batched.size());
        for (std::size_t f = 0; f < singles.size(); ++f) {
            EXPECT_EQ(singles[f], batched[f]) << "frame " << f;
        }
    }
}

TEST(Serve, WirePayloadRequiresEncoderAndStaysOffByDefault)
{
    ServerOptions options;
    options.wirePayload = true;
    EXPECT_THROW(Server([](const Tensor &batch) {
                     return Tensor({batch.size(0), 2});
                 }, {3, kHw, kHw}, options),
                 CheckError);

    // Default options: responses carry no payload even with an encoder
    // installed.
    auto pipeline = makeTinyPipeline();
    ServerOptions plain;
    plain.maxBatch = 1;
    plain.maxWaitMicros = 0;
    Server server(pipelineBackend(*pipeline), {3, kHw, kHw}, plain,
                  pipelineWireEncoder(*pipeline));
    Session session = server.openSession();
    FrameTicket ticket;
    server.submit(session, makeFrame(0, 0), ticket);
    const FrameResult &r = ticket.wait();
    EXPECT_EQ(r.status, ServeStatus::Ok);
    EXPECT_TRUE(r.wire.empty());
    server.stop();
}

// ---- Metrics plumbing ----------------------------------------------------

TEST(Serve, MetricsCoverEveryServedFrame)
{
    ServerOptions options;
    options.queueCapacity = 16;
    options.maxBatch = 4;
    options.maxWaitMicros = 200;
    Server server([](const Tensor &batch) {
        Tensor logits({batch.size(0), 3});
        for (std::size_t i = 0; i < logits.numel(); ++i)
            logits.data()[i] = static_cast<float>(i % 3);
        return logits;
    }, {3, kHw, kHw}, options);
    Session session = server.openSession();

    constexpr int kFrames = 12;
    FrameTicket ticket;
    for (int i = 0; i < kFrames; ++i) {
        server.submit(session,
                      makeFrame(0, static_cast<std::uint64_t>(i)),
                      ticket);
        const FrameResult &r = ticket.wait();
        ASSERT_EQ(r.status, ServeStatus::Ok);
        EXPECT_EQ(r.argmax, 2); // logits row is always {0, 1, 2}
        EXPECT_GE(r.totalNanos, r.batchNanos);
        EXPECT_GE(r.batchSize, 1);
        EXPECT_LE(r.batchSize, options.maxBatch);
    }
    server.stop();

    const MetricsSnapshot m = server.metrics();
    EXPECT_EQ(m.completed, kFrames);
    EXPECT_EQ(m.totalNanos.count, kFrames);
    EXPECT_EQ(m.queueNanos.count, kFrames);
    EXPECT_GE(m.batches, kFrames / options.maxBatch);
    EXPECT_EQ(m.batchSize.count, m.batches);
    EXPECT_GE(m.totalNanos.quantile(0.99), m.totalNanos.quantile(0.50));
    EXPECT_LE(m.batchSize.maxValue, options.maxBatch);
}

TEST(Serve, BatchNanosTimesTheBackendOnly)
{
    // A wire encode that takes 50 ms per frame and a backend that
    // returns at once: the batch time excludes the encode, the
    // frame's total time includes it.
    static constexpr std::int64_t kWireNanos = 50'000'000;
    ServerOptions options;
    options.maxBatch = 1;
    options.maxWaitMicros = 0;
    options.wirePayload = true;
    Server server(
        [](const Tensor &batch) { return Tensor({batch.size(0), 2}); },
        {3, kHw, kHw}, options,
        [](const Tensor &, std::vector<std::uint8_t> &out) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(kWireNanos));
            out.push_back(1);
        });
    Session session = server.openSession();
    FrameTicket ticket;
    server.submit(session, makeFrame(0, 0), ticket);
    const FrameResult &r = ticket.wait();
    ASSERT_EQ(r.status, ServeStatus::Ok);
    EXPECT_LT(r.batchNanos, kWireNanos);
    EXPECT_GE(r.totalNanos, kWireNanos);
    server.stop();
    const MetricsSnapshot m = server.metrics();
    ASSERT_EQ(m.batchNanos.count, 1u);
    EXPECT_LT(m.batchNanos.maxValue, kWireNanos);
}

TEST(Serve, SteadyStateDispatchRunsUnderDenyAllocScope)
{
    // The serve layer's memory-model promise (server.hh header comment)
    // made checkable: once the ring slots, tickets, and staging are
    // warm, submit -> stage -> dispatch -> complete performs zero heap
    // allocations in the serve layer itself. The backend runs inside
    // the dispatcher's AllowAllocScope (its allocation budget is its
    // own business), so this catches exactly serve-side regressions:
    // a per-dispatch Tensor view, a std::function in ticket
    // completion, a shape copy in the submit-path check.
    if (!allocGuardEnabled())
        GTEST_SKIP() << "built without LECA_ALLOC_GUARD";
    ServerOptions options;
    options.queueCapacity = 16;
    options.maxBatch = 4;
    options.maxWaitMicros = 0; // dispatch immediately, no coalescing wait
    Server server([](const Tensor &batch) {
        Tensor logits({batch.size(0), 3});
        for (std::size_t i = 0; i < logits.numel(); ++i)
            logits.data()[i] = static_cast<float>(i % 3);
        return logits;
    }, {3, kHw, kHw}, options);
    Session session = server.openSession();
    const Tensor frame = makeFrame(0, 0);

    // Warm-up: recycle every ring slot at least once, give the ticket
    // its logits capacity, let per-thread tensor pools fill.
    FrameTicket ticket;
    for (int i = 0; i < 2 * options.queueCapacity; ++i) {
        server.submit(session, frame, ticket);
        ASSERT_EQ(ticket.wait().status, ServeStatus::Ok);
    }

    DenyAllocScope deny;
    for (int i = 0; i < 32; ++i) {
        server.submit(session, frame, ticket);
        ASSERT_EQ(ticket.wait().status, ServeStatus::Ok);
    }
    EXPECT_EQ(deny.violations(), 0u)
        << "steady-state serve dispatch allocated outside the backend";
}

} // namespace
} // namespace leca::serve
