/**
 * @file
 * Accuracy cost of int8 block-quantized inference (DESIGN.md §12).
 *
 * Trains the standard proxy pipeline in Soft modality, evaluates fp32
 * top-1, quantizes every dense weight with LecaPipeline::quantize(),
 * and evaluates again through the int8 kernels. Reports:
 *
 *   - fp32 vs int8 top-1 and their delta in points
 *   - per-layer weight sizes and max-abs reconstruction error
 *   - max logit divergence between the fp32 and int8 forwards
 *   - overall weight compression ratio
 *
 * Flags: --max-delta PTS  fail (exit 1) if int8 costs more top-1
 *                         points than this          (default 1.0)
 *        --json PATH      machine-readable report (see json_report.hh)
 * LECA_BENCH_FAST=1 shrinks the dataset/epochs for smoke runs.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "common.hh"
#include "core/pipeline.hh"
#include "data/trainloop.hh"
#include "json_report.hh"
#include "util/table.hh"

namespace {

using namespace leca;

double
floatFlag(int argc, char **argv, const char *name, double fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return std::atof(argv[i + 1]);
    return fallback;
}

/** Max |fp32 - int8| over the logits of one evaluation batch. */
float
logitDivergence(LecaPipeline &pipeline, const Tensor &fp32_logits,
                const Dataset &ds, int count)
{
    const int c = ds.images.size(1), h = ds.images.size(2);
    const int w = ds.images.size(3);
    const Tensor batch = Tensor::borrow({count, c, h, w},
                                        ds.images.data());
    const Tensor q_logits = pipeline.forward(batch, Mode::Eval);
    float worst = 0.0f;
    for (std::size_t i = 0; i < q_logits.numel(); ++i) {
        const float d = fp32_logits[i] > q_logits[i]
                            ? fp32_logits[i] - q_logits[i]
                            : q_logits[i] - fp32_logits[i];
        worst = worst > d ? worst : d;
    }
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace leca::bench;
    JsonReport report(argc, argv);
    const double max_delta = floatFlag(argc, argv, "--max-delta", 1.0);

    printBanner(std::cout,
                "int8 quantized inference accuracy (DESIGN.md §12)");
    const Harness harness = makeHarness(Scale::Proxy);
    auto pipeline = makePipeline(harness, benchConfig(8, 3.0));
    const double trained =
        trainLeca(*pipeline, harness, EncoderModality::Soft,
                  standardTrainOptions(Scale::Proxy));
    std::cout << "trained proxy pipeline (Soft): "
              << Table::num(100.0 * trained, 2) << "% val top-1\n";

    const double fp32_top1 = evalAccuracy(*pipeline, harness.val);
    const int probe = std::min(64, harness.val.count());
    const int c = harness.val.images.size(1);
    const int h = harness.val.images.size(2);
    const int w = harness.val.images.size(3);
    const Tensor probe_batch =
        Tensor::borrow({probe, c, h, w}, harness.val.images.data());
    const Tensor fp32_logits = pipeline->forward(probe_batch, Mode::Eval);

    const LecaPipeline::QuantizationReport quant = pipeline->quantize();
    const double int8_top1 = evalAccuracy(*pipeline, harness.val);
    const float logit_div =
        logitDivergence(*pipeline, fp32_logits, harness.val, probe);

    Table table({"layer", "fp32 KB", "int8 KB", "max |dw|"});
    for (const QuantStat &s : quant.layers)
        table.addRow({s.name, Table::num(s.fp32Bytes / 1024.0, 2),
                      Table::num(s.quantBytes / 1024.0, 2),
                      Table::num(s.maxAbsError, 5)});
    table.print(std::cout);

    const double delta_pts = 100.0 * (fp32_top1 - int8_top1);
    const double ratio = static_cast<double>(quant.fp32Bytes())
                         / static_cast<double>(quant.quantBytes());
    std::cout << "fp32 top-1: " << Table::num(100.0 * fp32_top1, 2)
              << "%, int8 top-1: " << Table::num(100.0 * int8_top1, 2)
              << "%, delta: " << Table::num(delta_pts, 2) << " pts\n"
              << "weight compression: " << Table::num(ratio, 2)
              << "x, worst weight error: "
              << Table::num(quant.maxAbsError(), 5)
              << ", max logit divergence: " << Table::num(logit_div, 5)
              << "\n";

    report.add("quant_top1_fp32_pct", 100.0 * fp32_top1, "%", Better::Higher);
    report.add("quant_top1_int8_pct", 100.0 * int8_top1, "%", Better::Higher);
    report.add("quant_top1_delta_pts", delta_pts, "pts", Better::Lower);
    report.add("quant_weight_max_abs_err", quant.maxAbsError(), "weight",
               Better::Lower);
    report.add("quant_logit_div_max", logit_div, "logit", Better::Lower);
    report.add("quant_compression_ratio", ratio, "x", Better::Higher);

    if (delta_pts > max_delta) {
        std::cout << "FAIL: int8 top-1 delta " << Table::num(delta_pts, 2)
                  << " pts exceeds --max-delta " << max_delta << "\n";
        return 1;
    }
    return 0;
}
