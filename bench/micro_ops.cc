/**
 * @file
 * Micro-benchmarks of the hot substrate operations, each a wall time:
 * the blocked kernels against the naive reference (GEMM and conv, with
 * GF/s), the int8 kernels against fp32 plus a roofline, every
 * Full-backbone conv shape in fp32 and resident int8, the SCM MAC
 * chain, a full-frame chip encode, CS block reconstruction, and a
 * training epoch. Every section runs on every call and prints a table.
 *
 * Pass --json <path> to also write every row as one leca-bench-v2
 * report (json_report.hh).
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "analog/chain.hh"
#include "compression/compressive_sensing.hh"
#include "data/backbone.hh"
#include "data/dataset.hh"
#include "data/trainloop.hh"
#include "hw/sensor_chip.hh"
#include "hw/weights.hh"
#include "json_report.hh"
#include "nn/conv.hh"
#include "tensor/isa.hh"
#include "tensor/kernels.hh"
#include "tensor/ops.hh"
#include "tensor/quant.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

using namespace leca;
using bench::Better;
using bench::sink;
using bench::timeWallMs;

Tensor
randomTensor(std::vector<int> shape, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

/** The pre-blocking conv path: materialised im2col + naive GEMM. */
Tensor
convNaive(const Tensor &x, const Tensor &w, const Tensor &b, int stride,
          int pad)
{
    const int n = x.size(0), cin = x.size(1), h = x.size(2), ww = x.size(3);
    const int cout = w.size(0), k = w.size(2);
    const int oh = convOutSize(h, k, stride, pad);
    const int ow = convOutSize(ww, k, stride, pad);
    const int kdim = cin * k * k;
    const std::int64_t ohow = static_cast<std::int64_t>(oh) * ow;
    Tensor y({n, cout, oh, ow});
    Tensor cols({kdim, oh * ow});
    for (int i = 0; i < n; ++i) {
        im2colRaw(x.data() + static_cast<std::size_t>(i) * cin * h * ww,
                  cin, h, ww, k, k, stride, pad, cols.data());
        float *dst = y.data() + static_cast<std::size_t>(i) * cout * ohow;
        gemmReference(cout, ohow, kdim, w.data(), kdim, false, cols.data(),
                      ohow, false, dst, ohow, false);
        for (int co = 0; co < cout; ++co)
            for (std::int64_t p = 0; p < ohow; ++p)
                dst[co * ohow + p] += b[static_cast<std::size_t>(co)];
    }
    return y;
}

/**
 * The int8 GEMM shape (A: 256x1024, B: 256x1024) as the production
 * int8 driver runs it: a 1x1 resident conv over 256 pixel rows of 1024
 * channels into 256 output channels, no epilogue, fp32 rows out. A 1x1
 * HWC relayout leaves codes and scales unchanged, so run() computes
 * exactly Aq · Bqᵀ.
 */
struct Conv1x1Gemm
{
    static constexpr std::int64_t m = 256, n = 256, k = 1024;
    static_assert(m == 16 * 16, "A rows are a 16x16 image's pixels");
    QuantTensor qa;
    QuantTensor wq_hwc;

    Conv1x1Gemm(const Tensor &a, const Tensor &b)
        : qa(quantizeRowMajor(a, m, k)),
          wq_hwc(quantizeConvWeightsHwc(quantizeRowMajor(b, n, k),
                                        static_cast<int>(k), 1, 1))
    {
    }

    /** C (m x n, row-major) = Aq · Bqᵀ. */
    void
    run(float *c)
    {
        const QuantActivation act{1, static_cast<int>(k), 16, 16,
                                  qa.q.data(), qa.scales.data()};
        const ConvGeometry g{static_cast<int>(k), 16, 16, static_cast<int>(n),
                             1, 1, 1, 0};
        convForwardResident(act, g, wq_hwc, ResidentEpilogue{}, nullptr,
                            nullptr, c, nullptr);
    }
};

/**
 * Head-to-head timing of the blocked kernels against the retained
 * naive reference on the large-GEMM and conv shapes: prints a
 * GFLOP/s + speedup table and records both sides' times in the
 * report.
 */
void
compareKernels(leca::bench::JsonReport &report)
{
    Table table({"kernel", "naive ms", "blocked ms", "naive GF/s",
                 "blocked GF/s", "speedup"});

    const auto row = [&](const std::string &name, double flops,
                         double naive_ms, double blocked_ms) {
        const double ngf = flops / naive_ms / 1e6;
        const double bgf = flops / blocked_ms / 1e6;
        table.addRow({name, Table::num(naive_ms, 3),
                      Table::num(blocked_ms, 3), Table::num(ngf, 2),
                      Table::num(bgf, 2),
                      Table::num(naive_ms / blocked_ms, 2) + "x"});
        report.add(name + "_naive", naive_ms, "ms", Better::Lower);
        report.add(name + "_blocked", blocked_ms, "ms", Better::Lower);
    };

    {
        const Tensor a = randomTensor({256, 256}, 1);
        const Tensor b = randomTensor({256, 256}, 2);
        Tensor c({256, 256});
        const double naive_ms = timeWallMs([&] {
            gemmReference(256, 256, 256, a.data(), 256, false, b.data(),
                          256, false, c.data(), 256, false);
            sink(c.data());
        }, 20);
        const double blocked_ms = timeWallMs([&] {
            gemmBlocked(256, 256, 256, a.data(), 256, false, b.data(),
                        256, false, c.data(), 256, false);
            sink(c.data());
        }, 20);
        row("gemm_256", 2.0 * 256 * 256 * 256, naive_ms, blocked_ms);
    }
    {
        const Tensor x = randomTensor({1, 16, 32, 32}, 3);
        const Tensor w = randomTensor({32, 16, 3, 3}, 4);
        const Tensor b = randomTensor({32}, 5);
        const double naive_ms = timeWallMs([&] {
            Tensor y = convNaive(x, w, b, 1, 1);
            sink(y.data());
        }, 50);
        const double blocked_ms = timeWallMs([&] {
            Tensor y = conv2d(x, w, b, 1, 1);
            sink(y.data());
        }, 50);
        // FLOPs = 2 * Cout * (Cin*K*K) * OH*OW.
        row("conv_16x32x32", 2.0 * 32 * (16 * 9) * 32 * 32, naive_ms,
            blocked_ms);
    }

    printBanner(std::cout, "blocked vs naive kernels (single GEMM call)");
    table.print(std::cout);
}

/**
 * Estimated core clock in GHz from a serially dependent integer
 * chain: one xorshift64 step is three shift->xor pairs, each pair two
 * dependent 1-cycle ALU ops, so an iteration costs 6 cycles of pure
 * latency on every x86-64 and AArch64 core this targets (the loop
 * branch hides under the chain). Gives the roofline a denominator
 * without reading MSRs. Turbo and frequency scaling make this an
 * estimate.
 */
double
estimateClockGhz()
{
    constexpr std::int64_t iters = 1 << 25;
    constexpr double cycles_per_iter = 6.0;
    std::uint64_t x = 88172645463325252ULL;
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    const auto stop = std::chrono::steady_clock::now();
    sink(x);
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    return cycles_per_iter * static_cast<double>(iters) / ns;
}

/**
 * int8 quantized kernels vs the fp32 blocked GEMM at the serving
 * shape, plus a roofline: measured GFLOP/s (fp32) and GOP/s (int8,
 * 2 ops per MAC) against the dispatched KernelSet's theoretical
 * per-cycle peak x estimated clock x worker threads. The int8 side is
 * the resident conv driver (Conv1x1Gemm).
 */
void
compareQuantKernels(leca::bench::JsonReport &report)
{
    const std::int64_t m = Conv1x1Gemm::m, n = Conv1x1Gemm::n,
                       k = Conv1x1Gemm::k;
    const double ops = 2.0 * static_cast<double>(m) * n * k;

    const Tensor a = randomTensor({(int)m, (int)k}, 11);
    const Tensor b = randomTensor({(int)n, (int)k}, 12);
    Conv1x1Gemm gemm(a, b);
    const QuantTensor &qa = gemm.qa;
    std::vector<float> c(static_cast<std::size_t>(m * n));

    const double f32_ms = timeWallMs([&] {
        gemmBlocked(m, n, k, a.data(), k, false, b.data(), k, true,
                    c.data(), n, false);
        sink(c.data());
    }, 20);
    const double i8_ms = timeWallMs([&] {
        gemm.run(c.data());
        sink(c.data());
    }, 20);
    const double f32_gfs = ops / f32_ms / 1e6;
    const double i8_gops = ops / i8_ms / 1e6;

    // Quantize / dequantize bandwidth: bytes read + bytes written.
    const std::int64_t nb = quantBlocks(k);
    std::vector<std::int8_t> q(static_cast<std::size_t>(m * nb
                                                        * kQuantBlock));
    std::vector<float> scales(static_cast<std::size_t>(m * nb));
    const double quant_bytes =
        static_cast<double>(m) * (4.0 * k + nb * (kQuantBlock + 4.0));
    const double quant_ms = timeWallMs([&] {
        quantizeRowsInto(a.data(), m, k, q.data(), scales.data());
        sink(q.data());
    }, 50);
    const double dequant_ms = timeWallMs([&] {
        const Tensor t = dequantizeRowMajor(qa);
        sink(t.data());
    }, 50);
    const double quant_gbps = quant_bytes / quant_ms / 1e6;
    const double dequant_gbps = quant_bytes / dequant_ms / 1e6;

    Table table({"kernel", "ms", "rate", "GB/s"});
    table.addRow({"gemm_f32_256x1024", Table::num(f32_ms, 3),
                  Table::num(f32_gfs, 2) + " GF/s", "-"});
    table.addRow({"gemm_q8_256x1024", Table::num(i8_ms, 3),
                  Table::num(i8_gops, 2) + " GOP/s", "-"});
    table.addRow({"quantize_rows", Table::num(quant_ms, 3), "-",
                  Table::num(quant_gbps, 2)});
    table.addRow({"dequantize_rows", Table::num(dequant_ms, 3), "-",
                  Table::num(dequant_gbps, 2)});
    printBanner(std::cout, "int8 quantized kernels (vs fp32 blocked)");
    table.print(std::cout);
    std::cout << "int8 GEMM speedup over fp32: "
              << Table::num(f32_ms / i8_ms, 2) << "x\n";

    report.add("gemm_f32_256x1024", f32_ms, "ms", Better::Lower);
    report.add("gemm_q8_256x1024", i8_ms, "ms", Better::Lower);
    report.add("quantize_rows_256x1024", quant_ms, "ms", Better::Lower);
    report.add("dequantize_rows_256x1024", dequant_ms, "ms", Better::Lower);
    report.add("quantize_rows_gbps", quant_gbps, "GB/s", Better::Higher);
    report.add("dequantize_rows_gbps", dequant_gbps, "GB/s", Better::Higher);
    report.add("gemm_q8_speedup_vs_f32", f32_ms / i8_ms, "x",
               Better::Higher);

    // Roofline: the dispatched KernelSet advertises its per-core
    // per-cycle peak; scale by estimated clock and pool width. int8
    // peak is in ops (2 x MACs) to match the measured GOP/s.
    const KernelSet &ks = activeKernels();
    const double ghz = estimateClockGhz();
    const int threads = threadCount();
    const double f32_peak = ghz * ks.f32FlopsPerCycle * threads;
    const double i8_peak = ghz * 2.0 * ks.i8MacsPerCycle * threads;
    Table roof({"path", "measured", "peak", "% of peak"});
    roof.addRow({"fp32 (" + std::string(ks.name) + ")",
                 Table::num(f32_gfs, 2) + " GF/s",
                 Table::num(f32_peak, 2),
                 Table::num(100.0 * f32_gfs / f32_peak, 1)});
    roof.addRow({"int8 (" + std::string(ks.name) + ")",
                 Table::num(i8_gops, 2) + " GOP/s",
                 Table::num(i8_peak, 2),
                 Table::num(100.0 * i8_gops / i8_peak, 1)});
    printBanner(std::cout,
                "roofline (clock est. " + Table::num(ghz, 2) + " GHz)");
    roof.print(std::cout);
    report.add("clock_ghz_est", ghz, "GHz", Better::Higher);
    report.add("roofline_f32_pct_peak", 100.0 * f32_gfs / f32_peak, "%",
               Better::Higher);
    report.add("roofline_i8_pct_peak", 100.0 * i8_gops / i8_peak, "%",
               Better::Higher);
}

/**
 * Average wall-clock milliseconds of conv.backward(dy) over @p iters
 * runs, each after an untimed Train forward of @p x (one warm-up pair
 * excluded). A frozen conv times its dX pass alone.
 */
double
timeBackwardMs(Conv2d &conv, const Tensor &x, const Tensor &dy, int iters)
{
    double total = 0.0;
    for (int i = 0; i <= iters; ++i) {
        conv.forward(x, Mode::Train);
        const auto start = std::chrono::steady_clock::now();
        const Tensor dx = conv.backward(dy);
        const auto stop = std::chrono::steady_clock::now();
        sink(dx.data());
        if (i > 0)
            total += std::chrono::duration<double, std::milli>(stop - start)
                         .count();
    }
    return total / iters;
}

/**
 * Per-layer-shape conv comparison at every Full-backbone conv shape
 * (the 48x48 serving geometry): the fp32 conv vs the resident int8 conv
 * (codes in, codes out), plus the fp32 backward of the same shape. The
 * resident columns time convForwardResident with quantize-on-exit from
 * an already-resident input — the mid-chain steady state — at the
 * serving maxBatch of 8 and at batch 1 (serve_int8's mean batch), so
 * the forward columns are the ways the serving pipeline can run that
 * layer (a quantized conv off the resident path runs the fp32 conv over
 * its dequantized codes). The backward column is what a training step
 * runs: dX only for the frozen backbone shapes, dW + dX for the
 * decoder head.
 */
void
compareConvPaths(leca::bench::JsonReport &report)
{
    struct Shape
    {
        const char *name;
        int cin, cout, k, stride, pad, hw;
        bool trained; //!< backward computes dW and db too
    };
    // One row per distinct conv shape in the Full backbone at 48x48,
    // plus the decoder's 64->3 head (576-wide patches over 3 output
    // channels), the one shape here whose weights train, and the
    // Proxy backbone's cin-16 conv (the kResidentMinCin boundary).
    const Shape shapes[] = {
        {"conv_3x48_c32", 3, 32, 3, 1, 1, 48, false},   // stem (runs fp32)
        {"conv_32x48_c32", 32, 32, 3, 1, 1, 48, false}, // rb1
        {"conv_32x48_c64_s2", 32, 64, 3, 2, 1, 48, false},   // rb2.conv1
        {"conv_64x24_c64", 64, 64, 3, 1, 1, 24, false},      // rb2.conv2/rb3
        {"conv_64x24_c128_s2", 64, 128, 3, 2, 1, 24, false}, // rb4.conv1
        {"conv_128x12_c128", 128, 128, 3, 1, 1, 12, false},  // rb4.conv2
        {"conv_128x12_c128_s2", 128, 128, 3, 2, 1, 12, false}, // rb5.conv1
        {"conv_128x6_c128", 128, 128, 3, 1, 1, 6, false},    // rb5.conv2
        {"conv1x1_32x48_c64_s2", 32, 64, 1, 2, 0, 48, false},   // rb2.proj
        {"conv1x1_64x24_c128_s2", 64, 128, 1, 2, 0, 24, false}, // rb4.proj
        {"conv1x1_128x12_c128_s2", 128, 128, 1, 2, 0, 12, false}, // rb5.proj
        {"conv_64x48_c3_dec", 64, 3, 3, 1, 1, 48, true}, // decoder head
        {"conv_16x32_c16", 16, 16, 3, 1, 1, 32, false},  // Proxy rb1
    };
    const int batch = 8; // the serving maxBatch
    const int reps = 6;

    Table table({"shape", "fp32 ms", "resident ms", "res/fp32",
                 "res b1 ms", "fp32 bwd ms", "bwd computes"});
    for (const Shape &s : shapes) {
        const Tensor x = randomTensor({batch, s.cin, s.hw, s.hw}, 21);
        const Tensor w = randomTensor({s.cout, s.cin, s.k, s.k}, 22);
        const Tensor b = randomTensor({s.cout}, 23);
        const int oh = convOutSize(s.hw, s.k, s.stride, s.pad);
        const std::int64_t ohow = static_cast<std::int64_t>(oh) * oh;

        const double f32_ms = timeWallMs([&] {
            Tensor y = conv2d(x, w, b, s.stride, s.pad);
            sink(y.data());
        }, reps);

        // Resident: codes in, codes out, bias epilogue fused.
        const QuantTensor wq = quantizeRowMajor(
            w, s.cout, static_cast<std::int64_t>(s.cin) * s.k * s.k);
        const QuantTensor wq_hwc =
            quantizeConvWeightsHwc(wq, s.cin, s.k, s.k);
        const std::int64_t in_rows =
            static_cast<std::int64_t>(batch) * s.hw * s.hw;
        const std::int64_t out_rows =
            static_cast<std::int64_t>(batch) * ohow;
        std::vector<std::int8_t> in_q(
            static_cast<std::size_t>(in_rows * quantPadded(s.cin)));
        std::vector<float> in_s(
            static_cast<std::size_t>(in_rows * quantBlocks(s.cin)));
        quantizeActivationNchw(x.data(), batch, s.cin, s.hw, s.hw,
                               in_q.data(), in_s.data());
        const QuantActivation act{batch, s.cin, s.hw, s.hw, in_q.data(),
                                  in_s.data()};
        std::vector<std::int8_t> o_q(
            static_cast<std::size_t>(out_rows * quantPadded(s.cout)));
        std::vector<float> o_s(
            static_cast<std::size_t>(out_rows * quantBlocks(s.cout)));
        std::vector<float> ea(static_cast<std::size_t>(s.cout), 1.0f);
        const ResidentEpilogue epi{ea.data(), b.data(), true};
        const ConvGeometry g{s.cin, s.hw, s.hw, s.cout, s.k, s.k, s.stride,
                             s.pad};
        const double res_ms = timeWallMs([&] {
            convForwardResident(act, g, wq_hwc, epi, o_q.data(), o_s.data(),
                                nullptr, nullptr);
            sink(o_q.data());
        }, reps);
        // The same conv over the first image alone.
        const QuantActivation act1{1, s.cin, s.hw, s.hw, in_q.data(),
                                   in_s.data()};
        const double res_b1_ms = timeWallMs([&] {
            convForwardResident(act1, g, wq_hwc, epi, o_q.data(),
                                o_s.data(), nullptr, nullptr);
            sink(o_q.data());
        }, reps * batch);

        // Backward as training runs it: the frozen backbone's dX alone,
        // the decoder head's dW + db + dX.
        Rng init(24);
        Conv2d conv(s.cin, s.cout, s.k, s.stride, s.pad, s.trained, init);
        conv.freeze(!s.trained);
        const Tensor dy = randomTensor({batch, s.cout, oh, oh}, 25);
        const double bwd_ms = timeBackwardMs(conv, x, dy, reps);
        const std::string bwd_row =
            std::string(s.name) + (s.trained ? "_f32_bwd" : "_f32_bwd_dx");

        table.addRow({s.name, Table::num(f32_ms, 3), Table::num(res_ms, 3),
                      Table::num(f32_ms / res_ms, 2) + "x",
                      Table::num(res_b1_ms, 3), Table::num(bwd_ms, 3),
                      s.trained ? "dW+dX" : "dX"});
        report.add(std::string(s.name) + "_f32", f32_ms, "ms", Better::Lower);
        report.add(std::string(s.name) + "_resident_i8", res_ms, "ms",
                   Better::Lower);
        report.add(std::string(s.name) + "_resident_i8_b1", res_b1_ms, "ms",
                   Better::Lower);
        report.add(bwd_row, bwd_ms, "ms", Better::Lower);
    }
    printBanner(std::cout,
                "conv paths per backbone shape (batch 8, serving geometry)");
    table.print(std::cout);
}

/**
 * End-to-end training-path time: full trainClassifier calls (gather +
 * augment + forward + backward + Adam + batch-norm refresh) on a small
 * SyntheticVision problem shaped like the fig10/fig11 training
 * workloads. Records the wall time of the epoch loop and prints it as
 * images/sec.
 */
void
reportTrainEpoch(leca::bench::JsonReport &report)
{
    SyntheticVision::Config cfg;
    cfg.resolution = 32;
    cfg.numClasses = 4;
    cfg.seed = 42;
    SyntheticVision gen(cfg);
    const Dataset train = gen.generate(192, 1);
    const Dataset val; // empty: time the training path, not the eval tail

    constexpr int kEpochs = 2;
    const auto run = [&](bool augment) {
        TrainOptions options;
        options.epochs = kEpochs;
        options.batchSize = 16;
        options.learningRate = 1e-3;
        options.augment = augment;
        options.seed = 7;
        Rng rng(11);
        auto net = makeBackbone(BackboneStyle::Proxy, 3, 4, rng);
        trainClassifier(*net, train, val, options);
    };
    const double images = static_cast<double>(kEpochs) * train.count();
    const double ms = timeWallMs([&] { run(false); }, 2);
    report.add("train_epoch_proxy32", ms, "ms", Better::Lower);
    const double aug_ms = timeWallMs([&] { run(true); }, 2);
    report.add("train_epoch_proxy32_aug", aug_ms, "ms", Better::Lower);
    std::cout << "train_epoch_proxy32: "
              << Table::num(images * 1000.0 / ms, 1)
              << " images/s (augmented: "
              << Table::num(images * 1000.0 / aug_ms, 1) << ")\n";
}

/**
 * The substrate calls outside the comparisons above: a 256x256 matmul,
 * a batch-8 conv, a 16-tap SCM MAC chain, a 64x64 ideal chip encode
 * and one CS block reconstruction.
 */
void
timeSubstrate(leca::bench::JsonReport &report)
{
    Table table({"kernel", "us"});
    const auto row = [&](const std::string &name, double ms) {
        table.addRow({name, Table::num(1000.0 * ms, 2)});
        report.add(name, ms, "ms", Better::Lower);
    };
    {
        const Tensor a = randomTensor({256, 256}, 1);
        const Tensor b = randomTensor({256, 256}, 2);
        row("matmul_256", timeWallMs([&] {
            Tensor c = matmul(a, b);
            sink(c.data());
        }, 20));
    }
    {
        const Tensor x = randomTensor({8, 16, 32, 32}, 3);
        const Tensor w = randomTensor({32, 16, 3, 3}, 4);
        const Tensor b = randomTensor({32}, 5);
        row("conv2d_batch8", timeWallMs([&] {
            Tensor y = conv2d(x, w, b, 1, 1);
            sink(y.data());
        }, 20));
    }
    {
        CircuitConfig cfg;
        AnalogChain chain = AnalogChain::nominal(cfg);
        chain.adc.configure(QBits(3.0), 0.3);
        Rng rng(7);
        std::vector<double> pixels(16);
        std::vector<ScmWeight> weights(16);
        for (int i = 0; i < 16; ++i) {
            pixels[static_cast<std::size_t>(i)] = rng.uniform(0.4, 1.4);
            weights[static_cast<std::size_t>(i)] =
                ScmWeight{rng.uniformInt(0, 15), rng.uniform() < 0.5};
        }
        row("scm_mac_chain16", timeWallMs([&] {
            sink(chain.encode(pixels, weights, true, nullptr));
        }, 20000));
    }
    {
        ChipConfig cfg;
        cfg.rgbHeight = 64;
        cfg.rgbWidth = 64;
        cfg.monteCarlo = false;
        LecaSensorChip chip(cfg);
        Tensor w = randomTensor({4, 3, 2, 2}, 8);
        chip.loadKernels(flattenKernels(w, 1.0f));
        Tensor scene = randomTensor({3, 64, 64}, 9);
        for (std::size_t i = 0; i < scene.numel(); ++i)
            scene[i] = 0.5f + 0.4f * scene[i];
        Rng rng(1);
        row("chip_frame_encode_64", timeWallMs([&] {
            Tensor codes =
                chip.encodeFrame(scene, PeMode::Ideal, rng, false);
            sink(codes.data());
        }, 5));
    }
    {
        CompressiveSensing cs(4);
        Rng rng(10);
        float block[64];
        for (auto &v : block)
            v = static_cast<float>(rng.uniform());
        std::uint8_t codes[32]; // 16 measurements, two bytes each
        cs.measureBlock(block, codes);
        float recon[64];
        row("cs_block_reconstruction", timeWallMs([&] {
            cs.reconstructBlock(codes, recon);
            sink(&recon[0]);
        }, 200));
    }
    printBanner(std::cout, "substrate calls");
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    leca::bench::JsonReport report(argc, argv);
    if (argc > 1) {
        std::cerr << "usage: micro_ops [--json PATH]\n";
        return 2;
    }
    compareKernels(report);
    compareQuantKernels(report);
    compareConvPaths(report);
    timeSubstrate(report);
    reportTrainEpoch(report);
    return 0;
}
