/**
 * @file
 * Load generator for the leca::serve runtime (DESIGN.md §10).
 *
 * Two experiments:
 *
 *  closed loop  N sessions, each a client thread that submits a frame
 *               and waits for its response before sending the next —
 *               the latency-bound regime. Run twice, with batching
 *               disabled (maxBatch=1) and enabled (maxBatch=N), to
 *               measure what coalescing buys: one batched forward
 *               amortises the per-dispatch costs (condvar handoffs,
 *               per-forward tensor allocations) over N frames.
 *
 *  open loop    producers fire frames without waiting for responses at
 *               ~10x the service rate against a DropOldest queue — the
 *               overload regime. The server must shed, and the queue
 *               must never exceed its capacity.
 *
 * Flags: --sessions N  concurrent sessions/clients   (default 8)
 *        --frames N    frames per session            (default 400)
 *        --wait-us N   batching coalescing window    (default 2000)
 *        --json PATH   machine-readable report (see json_report.hh)
 * LECA_BENCH_FAST=1 shrinks the frame counts for smoke runs.
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "core/pipeline.hh"
#include "data/backbone.hh"
#include "json_report.hh"
#include "serve/server.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

using namespace leca;
using namespace leca::serve;

constexpr int kHw = 4; //!< tiny frames: fixed dispatch cost dominates
constexpr int kClasses = 4;

/** Tiny pipeline: per-dispatch overhead dominates per-frame compute,
 *  which is exactly the regime batching is for. */
std::unique_ptr<LecaPipeline>
makeServePipeline()
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

constexpr int kQuantHw = 48; //!< serving frames for the int8 experiment
constexpr int kQuantBatch = 8;

/**
 * Compute-bound pipeline for the fp32-vs-int8 serving comparison: the
 * Full backbone (32/64/128/128 channels) at 48x48 frames with a wide
 * DnCNN decoder, so the batched forward is GEMM time at channel
 * counts representative of a quantized deployment, not dispatch
 * overhead — the backend kernels are what is being measured.
 */
std::unique_ptr<LecaPipeline>
makeQuantPipeline()
{
    LecaConfig cfg;
    cfg.nch = 8;
    cfg.qbits = QBits(3.0);
    cfg.decoderDncnnLayers = 3;
    cfg.decoderFilters = 64;
    Rng rng(3);
    auto backbone = makeBackbone(BackboneStyle::Full, 3, kClasses, rng);
    LecaPipeline::Options options;
    options.leca = cfg;
    options.seed = 21;
    return std::make_unique<LecaPipeline>(options, std::move(backbone));
}

Tensor
makeFrame(std::uint64_t session, std::uint64_t frame, int hw = kHw)
{
    Tensor t({3, hw, hw});
    float *p = t.data();
    for (std::size_t i = 0; i < t.numel(); ++i)
        p[i] = static_cast<float>((session * 131 + frame * 17 + i * 7)
                                  % 256)
               / 255.0f;
    return t;
}

struct RunResult
{
    double wallMs = 0.0;
    double framesPerSec = 0.0;
    MetricsSnapshot metrics;
};

/** Closed loop: every client waits for each response before the next
 *  submit, so at most one request per session is ever outstanding. */
RunResult
runClosedLoop(int sessions, int frames_per_session, int max_batch,
              std::int64_t wait_us)
{
    auto pipeline = makeServePipeline();
    ServerOptions options;
    options.queueCapacity = std::max(2 * sessions, 8);
    options.maxBatch = max_batch;
    options.maxWaitMicros = max_batch > 1 ? wait_us : 0;
    options.policy = OverloadPolicy::Block;
    options.seed = 7;
    Server server(pipelineBackend(*pipeline), {3, kHw, kHw}, options);

    std::vector<Session> handles;
    handles.reserve(static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s)
        handles.push_back(server.openSession());

    const auto start = std::chrono::steady_clock::now();
    std::vector<ServiceThread> clients(
        static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s)
        clients[static_cast<std::size_t>(s)].start([&, s] {
            FrameTicket ticket;
            for (int f = 0; f < frames_per_session; ++f) {
                server.submit(handles[static_cast<std::size_t>(s)],
                              makeFrame(static_cast<std::uint64_t>(s),
                                        static_cast<std::uint64_t>(f)),
                              ticket);
                (void)ticket.wait();
            }
        });
    for (auto &client : clients)
        client.join();
    const auto stop = std::chrono::steady_clock::now();
    server.stop();

    RunResult result;
    result.wallMs = std::chrono::duration<double, std::milli>(stop - start)
                        .count();
    result.framesPerSec = 1000.0 * sessions * frames_per_session
                          / result.wallMs;
    result.metrics = server.metrics();
    return result;
}

/**
 * One timed closed-loop burst against an already-running server: every
 * session submits @p frames_per_session frames and waits each out.
 * Returns the burst's wall time in milliseconds.
 */
double
closedBurstMs(Server &server, std::vector<Session> &handles,
              int frames_per_session)
{
    const int sessions = static_cast<int>(handles.size());
    const auto start = std::chrono::steady_clock::now();
    std::vector<ServiceThread> clients(
        static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s)
        clients[static_cast<std::size_t>(s)].start([&, s] {
            FrameTicket ticket;
            for (int f = 0; f < frames_per_session; ++f) {
                server.submit(handles[static_cast<std::size_t>(s)],
                              makeFrame(static_cast<std::uint64_t>(s),
                                        static_cast<std::uint64_t>(f),
                                        kQuantHw),
                              ticket);
                (void)ticket.wait();
            }
        });
    for (auto &client : clients)
        client.join();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

/**
 * Closed-loop comparison of the fp32 and int8 block-quantized backends
 * over the compute-bound pipeline (DESIGN.md §12-13). Both servers run
 * the whole time and the measured frames alternate between them in
 * short bursts, so slow host frequency / thermal drift lands evenly on
 * both sides of the speedup ratio instead of biasing whichever backend
 * happened to run later.
 */
void
runQuantComparison(int sessions, int frames_per_session,
                   RunResult &fp32_out, RunResult &int8_out)
{
    auto fp32_pipeline = makeQuantPipeline();
    auto int8_pipeline = makeQuantPipeline();
    ServerOptions options;
    options.queueCapacity = std::max(2 * sessions, 8);
    options.maxBatch = kQuantBatch;
    options.maxWaitMicros = 2000;
    options.policy = OverloadPolicy::Block;
    options.seed = 7;
    Server fp32_server(pipelineBackend(*fp32_pipeline),
                       {3, kQuantHw, kQuantHw}, options);
    Server int8_server(quantizedPipelineBackend(*int8_pipeline),
                       {3, kQuantHw, kQuantHw}, options);

    std::vector<Session> fp32_handles, int8_handles;
    fp32_handles.reserve(static_cast<std::size_t>(sessions));
    int8_handles.reserve(static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
        fp32_handles.push_back(fp32_server.openSession());
        int8_handles.push_back(int8_server.openSession());
    }

    // Warm both backends (i-cache, predictors, arenas) before any
    // measured burst, then alternate measured rounds.
    constexpr int kRounds = 5;
    const int per_round =
        std::max(2, (frames_per_session + kRounds - 1) / kRounds);
    (void)closedBurstMs(fp32_server, fp32_handles, per_round);
    (void)closedBurstMs(int8_server, int8_handles, per_round);
    double fp32_ms = 0.0, int8_ms = 0.0;
    for (int r = 0; r < kRounds; ++r) {
        fp32_ms += closedBurstMs(fp32_server, fp32_handles, per_round);
        int8_ms += closedBurstMs(int8_server, int8_handles, per_round);
    }
    fp32_server.stop();
    int8_server.stop();

    const double frames =
        static_cast<double>(sessions) * kRounds * per_round;
    fp32_out.wallMs = fp32_ms;
    fp32_out.framesPerSec = 1000.0 * frames / fp32_ms;
    int8_out.wallMs = int8_ms;
    int8_out.framesPerSec = 1000.0 * frames / int8_ms;
}

/** Open loop: producers never wait, overrunning the queue ~10x. */
RunResult
runOpenLoopOverload(int sessions, int frames_per_session)
{
    auto pipeline = makeServePipeline();
    ServerOptions options;
    options.queueCapacity = 32;
    options.maxBatch = 8;
    options.maxWaitMicros = 500;
    options.policy = OverloadPolicy::DropOldest;
    options.seed = 7;
    Server server(pipelineBackend(*pipeline), {3, kHw, kHw}, options);

    std::vector<Session> handles;
    handles.reserve(static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s)
        handles.push_back(server.openSession());

    // One ticket per request: open-loop submits never block on a
    // response (DropOldest never blocks on the queue either).
    std::vector<std::vector<FrameTicket>> tickets(
        static_cast<std::size_t>(sessions));
    for (auto &per_session : tickets)
        per_session = std::vector<FrameTicket>(
            static_cast<std::size_t>(frames_per_session));

    const auto start = std::chrono::steady_clock::now();
    std::vector<ServiceThread> producers(
        static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s)
        producers[static_cast<std::size_t>(s)].start([&, s] {
            for (int f = 0; f < frames_per_session; ++f)
                server.submit(handles[static_cast<std::size_t>(s)],
                              makeFrame(static_cast<std::uint64_t>(s),
                                        static_cast<std::uint64_t>(f)),
                              tickets[static_cast<std::size_t>(s)]
                                     [static_cast<std::size_t>(f)]);
        });
    for (auto &producer : producers)
        producer.join();
    for (auto &per_session : tickets)
        for (auto &ticket : per_session)
            (void)ticket.wait();
    const auto stop = std::chrono::steady_clock::now();
    server.stop();

    RunResult result;
    result.wallMs = std::chrono::duration<double, std::milli>(stop - start)
                        .count();
    result.framesPerSec = 1000.0 * sessions * frames_per_session
                          / result.wallMs;
    result.metrics = server.metrics();
    return result;
}

void
printLatencies(const char *label, const MetricsSnapshot &m)
{
    const auto us = [](double nanos) { return Table::num(nanos / 1e3, 1); };
    std::cout << label << ": p50 " << us(m.totalNanos.quantile(0.50))
              << " us, p95 " << us(m.totalNanos.quantile(0.95))
              << " us, p99 " << us(m.totalNanos.quantile(0.99))
              << " us, mean batch "
              << Table::num(m.batchSize.mean, 2) << " (max "
              << m.batchSize.maxValue << "), shed " << m.shed
              << ", expired " << m.expired << ", max queue depth "
              << m.maxQueueDepth << "\n";
}

int
intFlag(int argc, char **argv, const char *name, int fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return std::atoi(argv[i + 1]);
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report(argc, argv);
    const bool fast = bench::fastMode();
    const int sessions = intFlag(argc, argv, "--sessions", 8);
    const int frames =
        intFlag(argc, argv, "--frames", fast ? 60 : 400);
    const auto wait_us = static_cast<std::int64_t>(
        intFlag(argc, argv, "--wait-us", 2000));

    printBanner(std::cout, "leca::serve load generator (DESIGN.md §10)");
    std::cout << sessions << " sessions x " << frames << " frames, "
              << threadCount() << " worker thread(s)\n\n";

    // Warm up allocators and the pipeline weights cache.
    (void)runClosedLoop(sessions, std::max(frames / 10, 4), 1, 0);

    const RunResult unbatched =
        runClosedLoop(sessions, frames, 1, 0);
    report.add("serve_closed_batch1", unbatched.wallMs, "ms",
               bench::Better::Lower);
    std::cout << "closed loop, maxBatch=1: "
              << Table::num(unbatched.framesPerSec, 1) << " frames/s\n";
    printLatencies("  latency", unbatched.metrics);

    const RunResult batched =
        runClosedLoop(sessions, frames, sessions, wait_us);
    report.add("serve_closed_batch8", batched.wallMs, "ms",
               bench::Better::Lower);
    std::cout << "closed loop, maxBatch=" << sessions << ": "
              << Table::num(batched.framesPerSec, 1) << " frames/s\n";
    printLatencies("  latency", batched.metrics);

    const double speedup = batched.framesPerSec / unbatched.framesPerSec;
    std::cout << "batching speedup: " << Table::num(speedup, 2)
              << "x\n\n";

    // Compute-bound serving: fp32 vs int8 block-quantized backend at
    // kQuantHw frames (DESIGN.md §12). Fewer frames — each is real work.
    const int quant_frames = std::max(frames / 8, fast ? 8 : 20);
    RunResult quant_f32, quant_i8;
    runQuantComparison(sessions, quant_frames, quant_f32, quant_i8);
    report.add("serve_quant_fp32", quant_f32.wallMs, "ms",
               bench::Better::Lower);
    report.add("serve_quant_int8", quant_i8.wallMs, "ms",
               bench::Better::Lower);
    const double quant_speedup =
        quant_i8.framesPerSec / quant_f32.framesPerSec;
    report.add("serve_quant_speedup", quant_speedup, "x",
               bench::Better::Higher);
    std::cout << "quantized serving (" << kQuantHw << "x"
              << kQuantHw << ", " << quant_frames
              << " frames/session):\n  fp32 backend: "
              << Table::num(quant_f32.framesPerSec, 1)
              << " frames/s\n  int8 backend: "
              << Table::num(quant_i8.framesPerSec, 1)
              << " frames/s\n  int8 speedup: "
              << Table::num(quant_speedup, 2) << "x\n\n";

    const RunResult overload = runOpenLoopOverload(sessions, frames);
    report.add("serve_open_overload_10x", overload.wallMs, "ms",
               bench::Better::Lower);
    const MetricsSnapshot &m = overload.metrics;
    std::cout << "open loop overload (DropOldest, capacity 32): "
              << Table::num(overload.framesPerSec, 1)
              << " submitted frames/s\n";
    printLatencies("  latency", m);
    const bool bounded = m.maxQueueDepth <= 32;
    const bool conserved = m.submitted == m.completed + m.shed + m.expired
                                              + m.rejectedClosed
                                              + m.errored;
    std::cout << "  queue stayed bounded: " << (bounded ? "yes" : "NO")
              << ", every request accounted for: "
              << (conserved ? "yes" : "NO") << "\n";
    return bounded && conserved && m.shed > 0 ? 0 : 1;
}
