/**
 * @file
 * Reproduces Table 2: the layer-by-layer structure of the LeCA encoder
 * and decoder, printed for the paper's full-scale configuration
 * (224x224 ImageNet frames, M = 15, F = 64) and for the bench-scale
 * configuration actually trained in this repository.
 */

#include <iostream>

#include "common.hh"
#include "core/decoder.hh"
#include "util/table.hh"

namespace {

using namespace leca;

std::string
dims(int a, int b, int c)
{
    return std::to_string(a) + "x" + std::to_string(b) + "x" +
           std::to_string(c);
}

std::string
dims4(int a, int b, int c, int d)
{
    return std::to_string(a) + "x" + std::to_string(b) + "x" +
           std::to_string(c) + "x" + std::to_string(d);
}

void
printStructure(const LecaConfig &cfg, int w, int h, const char *title)
{
    printBanner(std::cout, title);
    const int k = cfg.kernel, c = cfg.inChannels, nch = cfg.nch;
    const int f = cfg.decoderFilters, kd = cfg.decoderKernel;
    const int ow = w / k, oh = h / k;

    Table table({"layer", "ifmap dims", "weight dims", "ofmap dims"});
    table.addRow({"[enc] CONV (stride K)", dims(w, h, c),
                  dims4(k, k, c, nch), dims(ow, oh, nch)});
    table.addRow({"[dec] CONV transpose", dims(ow, oh, nch),
                  dims4(k, k, nch, c), dims(w, h, c)});
    table.addRow({"[dec] CONV+ReLU (M=" +
                      std::to_string(cfg.decoderDncnnLayers) + " layers)",
                  dims(w, h, c), dims4(kd, kd, c, c), dims(w, h, c)});
    table.addRow({"[dec] CONV+BatchNorm+ReLU", dims(w, h, c),
                  dims4(kd, kd, c, f), dims(w, h, f)});
    table.addRow({"[dec] CONV", dims(w, h, f), dims4(kd, kd, f, c),
                  dims(w, h, c)});
    table.print(std::cout);

    Rng rng(1);
    const auto decoder = makeDecoder(cfg, rng);
    std::size_t dec_params = 0;
    for (const Param *p : decoder->params())
        dec_params += p->value.numel();
    const std::size_t enc_params =
        static_cast<std::size_t>(nch) * c * k * k;
    std::cout << "encoder parameters: " << enc_params
              << ", decoder parameters: " << dec_params
              << ", CR (Eq. 1): " << Table::num(cfg.compressionRatio(), 2)
              << "x\n";
}

} // namespace

int
main()
{
    using namespace leca;

    // Paper-scale configuration (ImageNet 224x224, M = 15, F = 64).
    LecaConfig paper;
    paper.nch = 8;
    paper.qbits = QBits(3.0);
    paper.decoderDncnnLayers = 15;
    paper.decoderFilters = 64;
    printStructure(paper, 224, 224,
                   "Table 2 (paper-scale: 224x224, M=15, F=64, "
                   "Nch|Qbit = 8|3)");

    // Bench-scale configuration used throughout this repository.
    const LecaConfig bench_cfg = leca::bench::benchConfig(8, 3.0);
    printStructure(bench_cfg, 32, 32,
                   "Table 2 (bench-scale: 32x32, reduced decoder)");
    return 0;
}
