/**
 * @file
 * Open-loop serving workloads (serve_int8, serve_tiny).
 *
 * Independent cameras push frames on a fixed schedule: one submitting
 * thread calls Server::submit at each frame's due time whatever the
 * server is doing, and one completion thread waits on the tickets in
 * submission order and checks every response. A request is timed from
 * when it was due, so a stall also charges the frames queued behind it:
 *
 *   latency = (submit-call start - due time) + FrameResult::totalNanos
 *
 * One run serves three kinds of rate point back to back, each on an
 * idle server:
 *   nominal     the workload's fixed offered rate; gives latency p50/p99
 *   saturation  five bursts of frames submitted back to back; gives the
 *               service rate
 *   probes      a bisection between the nominal rate and the service
 *               rate for the highest rate whose tail latency (see
 *               Samples::tailLevel) meets the workload's limit with no
 *               failure and no growing backlog
 *
 * With --trace 1 the Backend and WireEncoder std::functions are
 * wrapped: encodeFeatures, decoder().forward and backbone().forward are
 * timed separately (the same three calls LecaPipeline::forward makes,
 * so responses stay bit-identical), as is each wire encode, and every
 * frame's queue wait, batch and total time are attributed to its batch.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "bitstream/codec.hh"
#include "data/dataset.hh"
#include "nn/quantize.hh"
#include "serve/server.hh"
#include "util/check.hh"
#include "util/parallel.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using namespace leca;
using namespace leca::serve;

constexpr int kPoolFrames = 64; //!< distinct frames each run cycles through
constexpr int kSetups = 3;      //!< set-ups per run; setup_s is their median
constexpr int kMaxBatch = 8;    //!< ServerOptions::maxBatch

/** One serving workload: model, backend and traffic. */
struct ServeSpec
{
    BackboneStyle style;
    int hw;             //!< square frame extent
    LecaConfig leca;
    bool int8;          //!< quantizedPipelineBackend, else pipelineBackend
    bool wire;          //!< ServerOptions::wirePayload
    double nominalFps;  //!< fixed offered rate of the latency phase
    std::string nominalWhy;
    double limitMs;     //!< tail latency limit of max_rate_fps
    int tickets;        //!< in-flight ticket ring
};

ServeSpec
specFor(const std::string &workload)
{
    LecaConfig cfg;
    cfg.qbits = QBits(3.0);
    if (workload == "serve_int8") {
        cfg.nch = 8;
        cfg.decoderDncnnLayers = 3;
        cfg.decoderFilters = 64;
        // 30 fps is about a quarter of the ~115 fps one compute thread
        // serves, so the nominal latency stays one frame's service time
        // even when a shared host runs the run at half speed; at 120 fps
        // such a slowdown saturated the server and p50 jumped tenfold.
        // 100 ms is three frame periods.
        return {BackboneStyle::Full, 48, cfg, true, true, 30.0,
                "1 camera x 30 fps", 100.0, 512};
    }
    cfg.nch = 4;
    cfg.decoderDncnnLayers = 1;
    cfg.decoderFilters = 8;
    // 2000 fps keeps the 500 us frame gap clear of the 200 us coalescing
    // window (at 4000 fps p50 flips between batch sizes from run to
    // run); 5 ms puts the limit on the latency knee, above the jitter.
    return {BackboneStyle::Proxy, 4, cfg, false, false, 2000.0,
            "20 cameras x 100 fps", 5.0, 8192};
}

/** Per-batch spans recorded by the traced backend (dispatcher thread). */
struct BatchSpan
{
    int frames = 0;
    std::int64_t encoderNs = 0, decoderNs = 0, backboneNs = 0;
    std::int64_t backendNs = 0; //!< the whole wrapped Backend call
};

/** Spans of the traced Backend and WireEncoder, in dispatch order. */
struct Tracer
{
    std::vector<BatchSpan> batches;
    std::vector<std::int64_t> wireNs; //!< one per wire-encoded frame
};

/** What the completion thread keeps of one response. */
struct FrameRecord
{
    std::int64_t latencyNs = 0;
    std::int64_t queueNs = 0;
    std::int64_t batchNs = 0;
    std::int64_t totalNs = 0;
    std::int64_t doneNs = 0;      //!< completion, on the phase clock
    std::int64_t bitstreamNs = 0; //!< re-encode of the decoded codes
    std::size_t wireBytes = 0;
    int batchSize = 0;
};

/** One rate point. */
struct Phase
{
    std::string label;
    double offeredFps = 0.0; //!< 0 = back to back
    int frames = 0;
    std::uint64_t firstFrame = 0; //!< global dispatch index of frame 0
    std::vector<FrameRecord> records;
    Samples latencyMs, genLateMs;
    std::uint64_t ok = 0, shed = 0, expired = 0, errored = 0, closed = 0;
    std::uint64_t mismatched = 0;
    bool conserved = false;
    /** The generator itself (not the server's backpressure) ran late by
     *  more than 10% of the limit at p99: the point measured host
     *  stalls of the load generator as much as the server. */
    bool generatorLate = false;
    int endQueueDepth = 0;
    double p99Ms = 0.0;
    double tailLevel = 0.5; //!< see Samples::tailLevel
    double tailMs = 0.0;    //!< latency at tailLevel
    bool pass = false;
};

/** Model, references and a running server; rebuilt per set-up. */
struct ServeSetup
{
    std::unique_ptr<LecaPipeline> pipeline;
    Dataset frames;
    std::vector<Tensor> frameViews; //!< borrowed {3, hw, hw} per frame
    std::vector<std::vector<float>> refLogits;
    std::vector<std::vector<std::uint8_t>> refCodes;
    Server::Backend plain; //!< the library adapter, untraced
    Tracer tracer;
    std::vector<FrameTicket> tickets;
    std::uint64_t dispatched = 0; //!< frames submitted so far
    std::optional<Session> session;
    std::unique_ptr<Server> server; //!< last: stops before the rest dies
};

/** The three calls of LecaPipeline::forward, each timed. */
Server::Backend
tracedBackend(LecaPipeline &pipeline, Tracer &tracer)
{
    return [&pipeline, &tracer](const Tensor &batch) {
        const auto t0 = Clock::now();
        const Tensor features = pipeline.encodeFeatures(batch, Mode::Eval);
        const auto t1 = Clock::now();
        const Tensor decoded = pipeline.decoder().forward(features,
                                                          Mode::Eval);
        const auto t2 = Clock::now();
        Tensor logits = pipeline.backbone().forward(decoded, Mode::Eval);
        const auto t3 = Clock::now();
        tracer.batches.push_back({batch.size(0), nanos(t0, t1),
                                  nanos(t1, t2), nanos(t2, t3), 0});
        return logits;
    };
}

/** Wrap a backend call in one outer span (the "backend" whole). */
Server::Backend
spanned(Server::Backend inner, Tracer &tracer)
{
    return [inner = std::move(inner), &tracer](const Tensor &batch) {
        const auto t0 = Clock::now();
        Tensor logits = inner(batch);
        tracer.batches.back().backendNs = nanos(t0, Clock::now());
        return logits;
    };
}

Server::WireEncoder
spannedWire(Server::WireEncoder inner, Tracer &tracer)
{
    return [inner = std::move(inner), &tracer](
               const Tensor &frame, std::vector<std::uint8_t> &out) {
        const auto t0 = Clock::now();
        inner(frame, out);
        tracer.wireNs.push_back(nanos(t0, Clock::now()));
    };
}

/**
 * The frame pool: SyntheticVision images drawn with the workload seed.
 * SyntheticVision renders at least 8x8, so smaller frames are 2x2 box
 * averages of larger renders.
 */
Dataset
makeFrames(int hw, std::uint64_t seed)
{
    int render = hw;
    while (render < 8)
        render *= 2;
    SyntheticVision::Config vc;
    vc.resolution = render;
    vc.numClasses = kClasses;
    vc.seed = seed;
    Dataset ds = SyntheticVision(vc).generate(kPoolFrames, 1);
    for (; render > hw; render /= 2) {
        const int half = render / 2;
        Tensor small({kPoolFrames, 3, half, half});
        for (int n = 0; n < kPoolFrames; ++n)
            for (int c = 0; c < 3; ++c)
                for (int y = 0; y < half; ++y)
                    for (int x = 0; x < half; ++x)
                        small.at(n, c, y, x) =
                            0.25f
                            * (ds.images.at(n, c, 2 * y, 2 * x)
                               + ds.images.at(n, c, 2 * y, 2 * x + 1)
                               + ds.images.at(n, c, 2 * y + 1, 2 * x)
                               + ds.images.at(n, c, 2 * y + 1, 2 * x + 1));
        ds.images = std::move(small);
    }
    return ds;
}

/** Integer feature codes of one frame, as the wire should carry them. */
std::vector<std::uint8_t>
featureCodes(LecaPipeline &pipeline, const Tensor &batch1)
{
    const Tensor features = pipeline.encodeFeatures(batch1, Mode::Eval);
    const int levels = pipeline.encoder().qbits().levels();
    std::vector<std::uint8_t> codes(features.numel());
    for (std::size_t i = 0; i < codes.size(); ++i)
        codes[i] = static_cast<std::uint8_t>(
            quantizeCode(features[i], -1.0f, 1.0f, levels));
    return codes;
}

void
sleepUntil(Clock::time_point when)
{
    // Sleep coarsely, then spin the last stretch: the OS wake-up
    // granularity is far coarser than a tiny frame's period.
    constexpr auto kSpin = std::chrono::microseconds(300);
    if (when - Clock::now() > kSpin)
        std::this_thread::sleep_until(when - kSpin);
    while (Clock::now() < when) {
    }
}

class ServeRun
{
  public:
    ServeRun(const RunOptions &options, Report &report)
        : _options(options), _report(report), _spec(specFor(options.workload))
    {
    }

    void run();

  private:
    std::unique_ptr<ServeSetup> setUp();
    Phase runPhase(ServeSetup &s, const std::string &label, double fps,
                   int frames);
    void judge(Phase &phase) const;
    void reportTraceOverhead(ServeSetup &s);
    void reportPhase(const Phase &phase);
    void reportTrace(ServeSetup &s, const Phase &nominal);

    const RunOptions &_options;
    Report &_report;
    ServeSpec _spec;
    Rng _poolRng{0};
};

std::unique_ptr<ServeSetup>
ServeRun::setUp()
{
    auto s = std::make_unique<ServeSetup>();
    s->pipeline = makePipeline(_spec.style, _spec.leca);
    LecaPipeline &p = *s->pipeline;

    s->frames = makeFrames(_spec.hw, _options.seed);
    const std::size_t elems = 3u * _spec.hw * _spec.hw;
    for (int i = 0; i < kPoolFrames; ++i)
        s->frameViews.push_back(Tensor::borrow(
            {3, _spec.hw, _spec.hw}, s->frames.images.data() + i * elems));

    // The library's own adapters; quantizedPipelineBackend quantizes
    // the pipeline here, once.
    s->plain = _spec.int8 ? quantizedPipelineBackend(p) : pipelineBackend(p);

    // References: every frame alone (batch of one). Served batches of
    // up to maxBatch must reproduce them bit for bit.
    for (int i = 0; i < kPoolFrames; ++i) {
        const Tensor one = Tensor::borrow(
            {1, 3, _spec.hw, _spec.hw}, s->frames.images.data() + i * elems);
        const Tensor logits = s->plain(one);
        s->refLogits.emplace_back(logits.data(),
                                  logits.data() + logits.numel());
        if (_spec.wire)
            s->refCodes.push_back(featureCodes(p, one));
    }
    if (_options.corruptReference) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &s->refLogits[0][0], sizeof(bits));
        bits ^= 1u;
        std::memcpy(&s->refLogits[0][0], &bits, sizeof(bits));
    }

    ServerOptions so;
    so.queueCapacity = 64;
    so.maxBatch = kMaxBatch;
    so.policy = OverloadPolicy::Block;
    so.wirePayload = _spec.wire;
    so.seed = 7;
    Server::Backend backend = s->plain;
    Server::WireEncoder wire;
    if (_spec.wire)
        wire = pipelineWireEncoder(p);
    if (_options.trace) {
        s->tracer.batches.reserve(1 << 16);
        s->tracer.wireNs.reserve(1 << 16);
        backend = spanned(tracedBackend(p, s->tracer), s->tracer);
        if (_spec.wire)
            wire = spannedWire(std::move(wire), s->tracer);
    }
    s->tickets = std::vector<FrameTicket>(
        static_cast<std::size_t>(_spec.tickets));
    s->server = std::make_unique<Server>(
        std::move(backend), std::vector<int>{3, _spec.hw, _spec.hw}, so,
        std::move(wire));
    s->session = s->server->openSession();
    return s;
}

Phase
ServeRun::runPhase(ServeSetup &s, const std::string &label, double fps,
                   int frames)
{
    Phase phase;
    phase.label = label;
    phase.offeredFps = fps;
    phase.frames = frames;
    phase.firstFrame = s.dispatched;
    phase.records.resize(static_cast<std::size_t>(frames));

    const auto n = static_cast<std::size_t>(frames);
    std::vector<int> pool(n);
    for (int &p : pool)
        p = _poolRng.uniformInt(0, kPoolFrames - 1);
    std::vector<std::int64_t> due(n), submit(n), late(n);

    const std::size_t ring = s.tickets.size();
    const int hw_out = _spec.hw / _spec.leca.kernel;
    std::atomic<std::size_t> consumed{0};
    std::atomic<std::size_t> submitted{0};
    const MetricsSnapshot before = s.server->metrics();
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);

    ServiceThread completer;
    completer.start([&] {
        for (std::size_t i = 0; i < n; ++i) {
            // A recycled ticket still reads ready from its last use
            // until submit re-arms it.
            for (std::size_t seen = submitted.load(std::memory_order_acquire);
                 seen <= i; seen = submitted.load(std::memory_order_acquire))
                submitted.wait(seen, std::memory_order_acquire);
            const FrameResult &r = s.tickets[i % ring].wait();
            FrameRecord &rec = phase.records[i];
            switch (r.status) {
            case ServeStatus::Ok: ++phase.ok; break;
            case ServeStatus::Shed: ++phase.shed; break;
            case ServeStatus::Expired: ++phase.expired; break;
            case ServeStatus::Error: ++phase.errored; break;
            case ServeStatus::Closed: ++phase.closed; break;
            }
            if (r.status == ServeStatus::Ok) {
                const std::vector<float> &ref =
                    s.refLogits[static_cast<std::size_t>(pool[i])];
                bool match = r.logits.size() == ref.size()
                             && std::memcmp(r.logits.data(), ref.data(),
                                            ref.size() * sizeof(float))
                                    == 0;
                if (_spec.wire) {
                    try {
                        const std::vector<std::uint8_t> codes =
                            bitstream::decodeByteStream(r.wire.data(),
                                                        r.wire.size());
                        match = match
                                && codes
                                       == s.refCodes[static_cast<
                                           std::size_t>(pool[i])];
                        if (_options.trace) {
                            const auto b0 = Clock::now();
                            const auto again = bitstream::encodeByteStream(
                                codes.data(), codes.size(),
                                static_cast<std::uint64_t>(hw_out));
                            rec.bitstreamNs = nanos(b0, Clock::now());
                            match = match && again == r.wire;
                        }
                    } catch (const CheckError &) {
                        match = false;
                    }
                    rec.wireBytes = r.wire.size();
                }
                if (!match)
                    ++phase.mismatched;
            }
            rec.latencyNs = submit[i] - due[i] + r.totalNanos;
            rec.queueNs = r.queueNanos;
            rec.batchNs = r.batchNanos;
            rec.totalNs = r.totalNanos;
            rec.doneNs = submit[i] + r.totalNanos;
            rec.batchSize = r.batchSize;
            consumed.store(i + 1, std::memory_order_release);
        }
    });

    std::int64_t prev_return = 0;
    const double period_ns = fps > 0.0 ? 1e9 / fps : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        // A ticket is reused only after the completion thread read it.
        while (i >= ring
               && consumed.load(std::memory_order_acquire) <= i - ring)
            std::this_thread::yield();
        const auto due_ns =
            static_cast<std::int64_t>(std::llround(period_ns * i));
        if (fps > 0.0)
            sleepUntil(t0 + std::chrono::nanoseconds(due_ns));
        const auto start = Clock::now();
        // Written before submit: the completion thread reads them once
        // the ticket completes, which the ticket's mutex orders after.
        submit[i] = nanos(t0, start);
        due[i] = fps > 0.0 ? due_ns : submit[i];
        s.server->submit(*s.session,
                         s.frameViews[static_cast<std::size_t>(pool[i])],
                         s.tickets[i % ring]);
        submitted.store(i + 1, std::memory_order_release);
        submitted.notify_one();
        // Lateness the generator caused itself: time past the later of
        // the due time and the previous submit's return (a submit that
        // blocks on a full queue is the server's backpressure).
        late[i] = std::max<std::int64_t>(
            0, submit[i] - std::max(due[i], prev_return));
        prev_return = nanos(t0, Clock::now());
    }
    phase.endQueueDepth = s.server->queueDepth();
    completer.join();
    s.dispatched += n;

    // A ticket completes just before the dispatcher bumps its counter;
    // let the counters catch up with the tickets before reading them.
    MetricsSnapshot after = s.server->metrics();
    const auto settle = Clock::now() + std::chrono::seconds(1);
    while (after.completed + after.shed + after.expired
                   + after.rejectedClosed + after.errored
               < after.submitted
           && Clock::now() < settle) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        after = s.server->metrics();
    }
    const auto d = [](std::uint64_t a, std::uint64_t b) { return a - b; };
    const std::uint64_t sent = d(after.submitted, before.submitted);
    phase.conserved =
        sent == n
        && sent == d(after.completed, before.completed)
                            + d(after.shed, before.shed)
                            + d(after.expired, before.expired)
                            + d(after.rejectedClosed, before.rejectedClosed)
                            + d(after.errored, before.errored)
        && d(after.completed, before.completed) == phase.ok;

    phase.latencyMs.reserve(n);
    phase.genLateMs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        phase.latencyMs.add(phase.records[i].latencyNs / 1e6);
        phase.genLateMs.add(late[i] / 1e6);
    }
    phase.p99Ms = phase.latencyMs.quantile(0.99);
    phase.tailLevel = phase.latencyMs.tailLevel();
    phase.tailMs = phase.latencyMs.quantile(phase.tailLevel);
    phase.generatorLate =
        phase.genLateMs.quantile(0.99) > 0.1 * _spec.limitMs;
    judge(phase);

    const std::uint64_t failures = n - phase.ok + phase.mismatched;
    if (failures != 0)
        _report.fail(label + ": " + std::to_string(failures) + " of "
                         + std::to_string(n)
                         + " frames failed (non-Ok status or output mismatch)",
                     failures);
    if (!phase.conserved)
        _report.fail(label + ": serve conservation law violated");
    return phase;
}

void
ServeRun::judge(Phase &phase) const
{
    // Past the service rate the queue fills and submit blocks, so a
    // queue still holding more than two batches when the last frame
    // went in is a backlog that would keep growing.
    const bool no_failure =
        phase.ok == static_cast<std::uint64_t>(phase.frames)
        && phase.mismatched == 0;
    phase.pass = no_failure && phase.tailMs <= _spec.limitMs
                 && phase.endQueueDepth <= 16;
}

void
ServeRun::reportTraceOverhead(ServeSetup &s)
{
    // Alternate the library's backend and the traced one on the same
    // full batch; the server is idle, so the calls cannot overlap.
    const int batch = std::min(kMaxBatch, kPoolFrames);
    const Tensor x = Tensor::borrow({batch, 3, _spec.hw, _spec.hw},
                                    s.frames.images.data());
    Tracer scratch;
    scratch.batches.reserve(4096);
    const Server::Backend traced =
        spanned(tracedBackend(*s.pipeline, scratch), scratch);
    Samples plain_ms, traced_ms;
    const auto stop = Clock::now() + std::chrono::milliseconds(
                          static_cast<int>(50 * _options.seconds));
    while (Clock::now() < stop || plain_ms.count() < 5) {
        auto t = Clock::now();
        (void)s.plain(x);
        plain_ms.add(millis(t, Clock::now()));
        t = Clock::now();
        (void)traced(x);
        traced_ms.add(millis(t, Clock::now()));
        if (scratch.batches.size() >= 4000)
            scratch.batches.clear();
    }
    _report.add("trace.overhead_pct",
                100.0 * (traced_ms.median() / plain_ms.median() - 1.0), "%",
                "lower", plain_ms.count(),
                "traced vs library backend on one full batch, medians");
}

void
ServeRun::reportPhase(const Phase &p)
{
    _report.detail({"rate_point",
                    {{"offered_fps", p.offeredFps},
                     {"serve.sent", static_cast<double>(p.frames)},
                     {"serve.ok", static_cast<double>(p.ok)},
                     {"serve.shed", static_cast<double>(p.shed)},
                     {"serve.expired", static_cast<double>(p.expired)},
                     {"serve.errored", static_cast<double>(p.errored)},
                     {"serve.closed", static_cast<double>(p.closed)},
                     {"mismatched", static_cast<double>(p.mismatched)},
                     {"conserved", p.conserved ? 1.0 : 0.0},
                     {"latency_p50_ms", p.latencyMs.median()},
                     {"latency_p90_ms", p.latencyMs.quantile(0.9)},
                     {"latency_p99_ms", p.p99Ms},
                     {"tail_level", p.tailLevel},
                     {"latency_tail_ms", p.tailMs},
                     {"serve.generator_lateness_ms.p99",
                      p.genLateMs.quantile(0.99)},
                     {"generator_late", p.generatorLate ? 1.0 : 0.0},
                     {"end_queue_depth", static_cast<double>(p.endQueueDepth)},
                     {"meets_limit", p.pass ? 1.0 : 0.0}}});
}

void
ServeRun::reportTrace(ServeSetup &s, const Phase &nominal)
{
    const Tracer &t = s.tracer;
    // Batches of the nominal phase: frames are dispatched FIFO, so the
    // phase's frames map onto consecutive batches by running count.
    std::vector<std::size_t> batch_of(static_cast<std::size_t>(
        nominal.frames));
    std::uint64_t seen = 0;
    std::size_t b = 0;
    for (; b < t.batches.size() && seen < nominal.firstFrame; ++b)
        seen += static_cast<std::uint64_t>(t.batches[b].frames);
    LECA_CHECK(seen == nominal.firstFrame, "trace lost batch alignment");
    const std::size_t first_batch = b;
    std::size_t frame = 0;
    for (; b < t.batches.size() && frame < batch_of.size(); ++b)
        for (int k = 0; k < t.batches[b].frames; ++k)
            batch_of[frame++] = b;
    LECA_CHECK(frame == batch_of.size(), "trace is missing batches");
    const std::size_t end_batch = b;

    Samples enc, dec, bb, backend, batch_size, wire_us, bitstream_us;
    double frames = 0, enc_ns = 0, dec_ns = 0, bb_ns = 0, backend_ns = 0;
    for (std::size_t i = first_batch; i < end_batch; ++i) {
        const BatchSpan &span = t.batches[i];
        enc.add(span.encoderNs / 1e6);
        dec.add(span.decoderNs / 1e6);
        bb.add(span.backboneNs / 1e6);
        backend.add(span.backendNs / 1e6);
        batch_size.add(span.frames);
        frames += span.frames;
        enc_ns += span.encoderNs;
        dec_ns += span.decoderNs;
        bb_ns += span.backboneNs;
        backend_ns += span.backendNs;
    }
    // Wire encode of every frame of a frame's batch happens before the
    // backend runs and before any of the batch completes.
    std::vector<double> batch_wire_ns(t.batches.size(), 0.0);
    if (_spec.wire) {
        std::size_t w = 0;
        for (std::size_t i = 0; i < end_batch; ++i)
            for (int k = 0; k < t.batches[i].frames; ++k, ++w)
                batch_wire_ns[i] += static_cast<double>(t.wireNs.at(w));
        for (std::size_t i = nominal.firstFrame;
             i < nominal.firstFrame + nominal.records.size(); ++i)
            wire_us.add(t.wireNs.at(i) / 1e3);
    }

    Samples queue_us, self_us;
    double sum_total = 0, sum_measured = 0, bytes = 0;
    for (std::size_t i = 0; i < nominal.records.size(); ++i) {
        const FrameRecord &r = nominal.records[i];
        const BatchSpan &span = t.batches[batch_of[i]];
        const double parts = static_cast<double>(r.queueNs)
                             + static_cast<double>(span.backendNs)
                             + batch_wire_ns[batch_of[i]];
        queue_us.add(r.queueNs / 1e3);
        self_us.add((static_cast<double>(r.totalNs) - parts) / 1e3);
        sum_total += static_cast<double>(r.totalNs);
        sum_measured += parts;
        bytes += static_cast<double>(r.wireBytes);
        if (_spec.wire)
            bitstream_us.add(r.bitstreamNs / 1e3);
    }
    const double n = static_cast<double>(nominal.records.size());
    const std::size_t nb = end_batch - first_batch;
    const std::size_t nf = nominal.records.size();

    const double flops =
        forwardFlopsPerImage(s.pipeline->backbone(), _spec.hw, _spec.hw);
    // Encoder runs counted at the wrappers: one per frame of each
    // backend batch, one per WireEncoder call (which re-encodes).
    const std::size_t wire_calls =
        _spec.wire ? std::min<std::size_t>(t.wireNs.size(),
                                           nominal.firstFrame + nf)
                         - nominal.firstFrame
                   : 0;
    const double calls = (frames + static_cast<double>(wire_calls)) / n;

    Report &r = _report;
    r.add("core.encoder_us_per_frame", enc_ns / frames / 1e3, "us", "lower",
          nb, "encodeFeatures busy time per served frame");
    r.add("core.decoder_us_per_frame", dec_ns / frames / 1e3, "us", "lower",
          nb, "decoder().forward busy time per served frame");
    r.add("nn.backbone_us_per_frame", bb_ns / frames / 1e3, "us", "lower",
          nb, "backbone().forward busy time per served frame");
    r.add("core.encoder_calls_per_frame", calls, "count", "lower", nf,
          _spec.wire ? "backend + pipelineWireEncoder each run the encoder"
                     : "backend only (wire payloads off)");
    r.add("nn.backbone.gflops", flops * frames / bb_ns, "GFLOP/s", "higher",
          nb,
          "computed: 2 x conv/linear MACs from layer shapes = "
              + std::to_string(flops / 1e9) + " GFLOP per frame");
    r.add("core.encoder_ms", enc.median(), "ms", "lower", nb,
          "median per batch");
    r.add("core.decoder_ms", dec.median(), "ms", "lower", nb,
          "median per batch");
    r.add("nn.backbone_ms", bb.median(), "ms", "lower", nb,
          "median per batch");
    r.add("serve.backend_ms", backend.median(), "ms", "lower", nb,
          "wrapped Backend call, median per batch");
    r.add("serve.queue_wait_us.p50", queue_us.median(), "us", "lower", nf);
    r.add("serve.queue_wait_us.p99", queue_us.quantile(0.99), "us", "lower",
          nf);
    r.add("serve.batch_size.mean", batch_size.mean(), "frames", "higher",
          nb);
    r.add("serve.self_us.p50", self_us.median(), "us", "lower", nf,
          "total - queue - backend - wire, per frame");
    r.add("serve.generator_lateness_ms.p99", nominal.genLateMs.quantile(0.99),
          "ms", "lower", nf);
    if (_spec.wire) {
        r.add("serve.wire_encode_us", wire_us.median(), "us", "lower",
              wire_us.count(), "wrapped WireEncoder call, median per frame");
        r.add("bitstream.encode_us", bitstream_us.median(), "us", "lower",
              bitstream_us.count(),
              "encodeByteStream on each payload's decoded codes");
        r.add("bitstream.bytes_per_frame", bytes / n, "B", "lower", nf);
    }
    reportTraceOverhead(s);
    r.detail({"parts",
              {{"backend_parts_ratio", (enc_ns + dec_ns + bb_ns) / backend_ns},
               {"serve_parts_ratio", sum_measured / sum_total}}});
}

void
ServeRun::run()
{
    const ServeSpec &sp = _spec;
    Samples setup_s;
    double setup_rss = 0;
    std::unique_ptr<ServeSetup> s;
    for (int k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        s.reset(); // the previous server stops before its model goes
        _poolRng = Rng(_options.seed * 0x9E3779B97F4A7C15ULL + 5);
        s = setUp();
        if (k == 0)
            setup_rss = peakRssMb();
        // Caches, arenas and the kernel dispatch settle before timing:
        // one back-to-back burst runs a lone first frame and full batches
        // on the dispatcher thread.
        runPhase(*s, "warmup", 0.0, 3 * kMaxBatch);
        setup_s.add(millis(t0, Clock::now()) / 1e3);
    }

    _report.info("loop", "open; one submitting thread, one completion "
                         "thread; nominal "
                             + std::to_string(sp.nominalFps) + " fps ("
                             + sp.nominalWhy + ")");
    _report.info("latency_limit",
                 std::to_string(sp.limitMs)
                     + " ms on the tail percentile (the highest of "
                       "p99/p95/p90/p75 with >= 10 samples beyond it) for "
                       "max_rate_fps");
    _report.info("model", std::string(sp.style == BackboneStyle::Full
                                          ? "Full"
                                          : "Proxy")
                              + " backbone, " + std::to_string(sp.hw) + "x"
                              + std::to_string(sp.hw) + " frames, nch "
                              + std::to_string(sp.leca.nch) + ", decoder "
                              + std::to_string(sp.leca.decoderDncnnLayers)
                              + "x"
                              + std::to_string(sp.leca.decoderFilters)
                              + (sp.int8 ? ", int8 resident backend"
                                         : ", fp32 backend")
                              + ", maxBatch 8, Block policy, wire payloads "
                              + (sp.wire ? "on" : "off"));

    // Time budget, as shares of --seconds: nominal 70%, saturation 8%,
    // four probes of 5% each. The gated p50 comes from the nominal
    // phase; host speed drifts by 10-20% over seconds, so a long phase
    // averages over that drift.
    const double S = _options.seconds;
    const auto framesFor = [](double fps, double seconds) {
        return std::max(64, static_cast<int>(std::lround(fps * seconds)));
    };
    Phase nominal =
        runPhase(*s, "nominal", sp.nominalFps,
                 framesFor(sp.nominalFps, 0.70 * S));
    reportPhase(nominal);
    _report.info("nominal_validity",
                 nominal.generatorLate
                     ? "INVALID: the load generator itself ran late (host "
                       "stalls); its latency numbers include them"
                     : "valid: the load generator kept its schedule");

    // Size the saturation burst from the nominal phase's service rate.
    double busy_s = 0, served = 0;
    for (const FrameRecord &r : nominal.records) {
        busy_s += static_cast<double>(r.batchNs) / 1e9 / r.batchSize;
        served += 1;
    }
    const double est_fps = served / std::max(busy_s, 1e-9);
    // Five separate bursts, each from an idle server. On a shared host
    // a burst runs at one of two speeds, from run to run and sometimes
    // within a run; the service rate is the best burst, the server's
    // capacity.
    Samples burst_fps;
    int sat_frames = 0;
    for (int k = 0; k < 5; ++k) {
        Phase sat = runPhase(*s, "saturation", 0.0,
                             framesFor(est_fps, 0.016 * S));
        reportPhase(sat);
        // Skip the first batches, which complete before the queue fills.
        const std::size_t warm = std::min<std::size_t>(
            16, sat.records.size() / 4);
        burst_fps.add(static_cast<double>(sat.records.size() - 1 - warm)
                      * 1e9
                      / static_cast<double>(sat.records.back().doneNs
                                            - sat.records[warm].doneNs));
        sat_frames += sat.frames;
    }
    const double sat_fps = burst_fps.max();

    // Bisection between the nominal rate and the service rate (which
    // cannot be sustained: at it the backlog grows without bound), then
    // linear interpolation of the tail onto the limit inside the last
    // bracket when both of its ends were measured.
    struct Point { double fps, tail; bool pass, measured; };
    Point lo{nominal.offeredFps, nominal.tailMs, nominal.pass, true};
    if (!lo.pass)
        lo = {0.0, 0.0, true, false};
    Point hi{std::max(sat_fps, lo.fps), 0.0, false, false};
    for (int k = 0; k < 4; ++k) {
        const double fps = 0.5 * (lo.fps + hi.fps);
        Phase p = runPhase(*s, "probe", fps, framesFor(fps, 0.05 * S));
        reportPhase(p);
        (p.pass ? lo : hi) = Point{fps, p.tailMs, p.pass, true};
    }
    double max_rate = 0.5 * (lo.fps + hi.fps);
    if (lo.measured && hi.measured && hi.tail > lo.tail)
        max_rate = lo.fps
                   + std::clamp((sp.limitMs - lo.tail) / (hi.tail - lo.tail),
                                0.0, 1.0)
                         * (hi.fps - lo.fps);

    // Tail of the nominal phase as the median over five equal windows
    // of each window's tail: one host hiccup moves one window only.
    Samples window_tails, window_p90;
    double window_level = 0.5;
    const std::size_t nn = nominal.records.size();
    for (std::size_t w = 0; w < 5; ++w) {
        Samples win;
        for (std::size_t i = w * nn / 5; i < (w + 1) * nn / 5; ++i)
            win.add(nominal.records[i].latencyNs / 1e6);
        window_level = win.tailLevel();
        window_tails.add(win.quantile(window_level));
        window_p90.add(win.quantile(0.9));
    }

    double bytes = 0;
    for (const FrameRecord &r : nominal.records)
        bytes += static_cast<double>(r.wireBytes);
    const std::uint64_t attempted = s->dispatched;
    _report.attempted(attempted);

    Report &r = _report;
    if (!_options.trace) {
        r.add("setup_s", setup_s.median(), "s", "lower", setup_s.count(),
              "model build + quantize + references + server + warm-up");
        r.add("setup_rss_mb", setup_rss, "MB", "lower", 1,
              "peak RSS once the first set-up built its server");
        r.add("peak_rss_mb", peakRssMb(), "MB", "lower", 1, "whole run");
        r.add("latency_p50_ms", nominal.latencyMs.median(), "ms", "lower", nn,
              "due -> completion at the nominal rate");
        r.add("latency_tail_ms", window_tails.median(), "ms", "lower", nn,
              "median over 5 windows of each window's "
                  + percentileName(window_level));
        r.add("latency_p90_ms", window_p90.median(), "ms", "lower", nn,
              "median over 5 windows of each window's p90");
        r.add("latency_p99_ms", nominal.p99Ms, "ms", "lower", nn,
              "whole nominal phase");
        r.add("max_rate_fps", max_rate, "fps", "higher", 4,
              "highest offered rate meeting the tail limit with no failure "
              "and no growing backlog (4 probes)");
        r.add("service_rate_fps", sat_fps, "fps", "higher", sat_frames,
              "completions per second with frames always waiting "
              "(back-to-back submission), best of 5 bursts");
        r.add("service_rate_fps.median", burst_fps.median(), "fps", "higher",
              burst_fps.count(), "median of the 5 bursts");
        if (sp.wire)
            r.add("wire_bytes_per_frame", bytes / static_cast<double>(nn),
                  "B", "lower", nn, "coded payload bytes per Ok frame");
    } else {
        reportTrace(*s, nominal);
    }
    r.add("failed_share",
          static_cast<double>(r.failedCount())
              / static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
          "ratio", "lower", attempted);
}

} // namespace

void
runServeWorkload(const RunOptions &options, Report &report)
{
    ServeRun(options, report).run();
}

} // namespace perfbench
