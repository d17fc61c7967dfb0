/**
 * @file
 * Codec benchmark corpus (DESIGN.md §14): the entropy-coded wire cost
 * of every compression method in the comparison, measured on the same
 * image corpus that the accuracy benches use.
 *
 * For each method the harness asks wireSymbols() for the symbol stream
 * a real sensor link would transmit, entropy-codes it through
 * leca::bitstream::encodeByteStream, verifies the decode is bit-exact
 * (memcmp), and reports per-method symbol entropy, raw and coded bits
 * per pixel, the wire compression ratio against 24-bit RGB, downstream
 * accuracy, and encode/decode throughput.
 *
 * Hard gates (exit 1 on violation):
 *   - every wire stream must decode memcmp-equal to its symbols;
 *   - LeCA's entropy-coded bpp must be strictly below the raw 8-bit
 *     bpp of the same feature-code stream.
 *
 * Flags: --json PATH   machine-readable report (see json_report.hh)
 * LECA_BENCH_FAST=1 shrinks the dataset/epochs for smoke runs.
 */

#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "bitstream/codec.hh"
#include "bitstream/rans.hh"
#include "common.hh"
#include "compression/agt.hh"
#include "compression/compressive_sensing.hh"
#include "compression/jpeg.hh"
#include "compression/learned_codec.hh"
#include "compression/microshift.hh"
#include "compression/simple_methods.hh"
#include "compression/zonal_dct.hh"
#include "json_report.hh"
#include "util/table.hh"

namespace {

using namespace leca;
using namespace leca::bench;

/** One measured wire stream: symbols in, container bytes out. */
struct WireCost
{
    std::size_t symbols = 0;    //!< pre-entropy symbol bytes
    std::size_t wireBytes = 0;  //!< encoded container bytes
    double rawBits = 0.0;       //!< method-declared pre-entropy bits
    double entropyBits = 0.0;   //!< Shannon bits/symbol of the stream
    double encodeMs = 0.0;
    double decodeMs = 0.0;
    bool exact = false;         //!< decode memcmp-equal to symbols
};

/** Encode @p ws, verify the bit-exact decode, time both directions. */
WireCost
measureStream(const WireStream &ws, int iters)
{
    WireCost cost;
    cost.symbols = ws.symbols.size();
    cost.rawBits = ws.rawBits;
    cost.entropyBits =
        bitstream::shannonEntropyBits(ws.symbols.data(),
                                      ws.symbols.size());

    std::vector<std::uint8_t> wire;
    cost.encodeMs = timeWallMs(
        [&] {
            wire = bitstream::encodeByteStream(
                ws.symbols.data(), ws.symbols.size(), ws.predStride);
        },
        iters);
    cost.wireBytes = wire.size();

    std::vector<std::uint8_t> decoded;
    cost.decodeMs = timeWallMs(
        [&] {
            decoded = bitstream::decodeByteStream(wire.data(),
                                                  wire.size());
        },
        iters);
    cost.exact = decoded.size() == ws.symbols.size()
                 && (decoded.empty()
                     || std::memcmp(decoded.data(), ws.symbols.data(),
                                    decoded.size()) == 0);
    return cost;
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport report(argc, argv);
    const int iters = fastMode() ? 2 : 5;

    printBanner(std::cout,
                "codec corpus: entropy-coded wire cost of every method "
                "(DESIGN.md §14)");
    const Harness harness = makeHarness(Scale::Proxy);
    const Tensor &corpus = harness.val.images;
    const double pixels = static_cast<double>(corpus.size(0))
                          * corpus.size(2) * corpus.size(3);
    std::cout << "corpus: " << corpus.size(0) << " images of "
              << corpus.size(2) << "x" << corpus.size(3)
              << " RGB (24-bit raw = 24.000 bpp)\n\n";

    Table table({"method", "CR", "accuracy", "symbols", "entropy b/sym",
                 "raw bpp", "wire bpp", "wire CR", "enc MB/s",
                 "dec MB/s"});
    bool all_exact = true;
    double total_symbol_bytes = 0.0, total_encode_ms = 0.0;
    double total_decode_ms = 0.0;

    const auto addRow = [&](const std::string &name, double cr,
                            double accuracy, const WireCost &cost) {
        all_exact = all_exact && cost.exact;
        total_symbol_bytes += static_cast<double>(cost.symbols);
        total_encode_ms += cost.encodeMs;
        total_decode_ms += cost.decodeMs;
        const double wire_bpp =
            8.0 * static_cast<double>(cost.wireBytes) / pixels;
        const double enc_mb_s =
            cost.encodeMs > 0.0
                ? static_cast<double>(cost.symbols) / 1e6
                      / (cost.encodeMs / 1e3)
                : 0.0;
        const double dec_mb_s =
            cost.decodeMs > 0.0
                ? static_cast<double>(cost.symbols) / 1e6
                      / (cost.decodeMs / 1e3)
                : 0.0;
        table.addRow({name, Table::num(cr, 2), Table::pct(100 * accuracy),
                      std::to_string(cost.symbols),
                      Table::num(cost.entropyBits, 3),
                      Table::num(cost.rawBits / pixels, 3),
                      Table::num(wire_bpp, 3),
                      Table::num(24.0 / wire_bpp, 2) + "x",
                      Table::num(enc_mb_s, 1), Table::num(dec_mb_s, 1)});
        return wire_bpp;
    };

    // --- The nine compression baselines -------------------------------
    const auto baseline = [&](const std::string &key,
                              CompressionMethod &method) {
        const double accuracy = baselineAccuracy(harness, method);
        const WireCost cost =
            measureStream(method.wireSymbols(corpus), iters);
        const double bpp = addRow(method.name(), method.compressionRatio(),
                                  accuracy, cost);
        report.add("codec_bpp_" + key, bpp, "bpp", Better::Lower);
        report.add("codec_acc_" + key, 100.0 * accuracy, "%", Better::Higher);
    };
    {
        JpegCodec jpeg(50);
        baseline("jpeg", jpeg);
    }
    {
        ZonalDct dct(16);
        baseline("dct", dct);
    }
    {
        Microshift ms(2);
        baseline("ms", ms);
    }
    {
        CompressiveSensing cs(4);
        baseline("cs", cs);
    }
    {
        SpatialDownsample sd(2, 2);
        baseline("sd", sd);
    }
    {
        LowResQuantizer lr{QBits(2.0)};
        baseline("lr", lr);
    }
    {
        ConventionalSensor cnv;
        baseline("cnv", cnv);
    }
    {
        AccumGradientThreshold agt;
        agt.calibrate(harness.val.images, 4.0); // fig10's operating point
        baseline("agt", agt);
    }
    {
        LearnedCodec learned(12);
        learned.train(harness.train, fastMode() ? 4 : 12);
        baseline("learned", learned);
    }

    // --- LeCA: per-frame feature-code payloads, as leca::serve sends --
    auto pipeline = makePipeline(harness, benchConfig(8, 3.0));
    const double leca_acc =
        trainLeca(*pipeline, harness, EncoderModality::Soft,
                  standardTrainOptions(Scale::Proxy));
    const Tensor features = pipeline->encodeFeatures(corpus, Mode::Eval);
    const int levels = pipeline->encoder().qbits().levels();
    const int ow = features.size(features.dim() - 1);
    const std::size_t per_image =
        features.numel() / static_cast<std::size_t>(features.size(0));

    WireStream leca_ws;
    leca_ws.symbols.resize(features.numel());
    quantizeCodes(features.data(), leca_ws.symbols.size(), -1.0f, 1.0f,
                  levels, leca_ws.symbols.data());
    leca_ws.rawBits = pipeline->encoder().qbits().bits()
                      * static_cast<double>(leca_ws.symbols.size());
    leca_ws.predStride = static_cast<std::uint64_t>(ow);

    // Encode image by image (each frame is an independent payload on
    // the serve wire), but time and account for the whole corpus.
    WireCost leca_cost;
    leca_cost.symbols = leca_ws.symbols.size();
    leca_cost.rawBits = leca_ws.rawBits;
    leca_cost.entropyBits = bitstream::shannonEntropyBits(
        leca_ws.symbols.data(), leca_ws.symbols.size());
    std::vector<std::vector<std::uint8_t>> frames;
    leca_cost.encodeMs = timeWallMs(
        [&] {
            frames.clear();
            for (int i = 0; i < features.size(0); ++i)
                frames.push_back(bitstream::encodeByteStream(
                    leca_ws.symbols.data()
                        + static_cast<std::size_t>(i) * per_image,
                    per_image, leca_ws.predStride));
        },
        iters);
    leca_cost.exact = true;
    leca_cost.decodeMs = timeWallMs(
        [&] {
            for (int i = 0; i < features.size(0); ++i) {
                const std::vector<std::uint8_t> decoded =
                    bitstream::decodeByteStream(
                        frames[static_cast<std::size_t>(i)].data(),
                        frames[static_cast<std::size_t>(i)].size());
                leca_cost.exact =
                    leca_cost.exact
                    && std::memcmp(
                           decoded.data(),
                           leca_ws.symbols.data()
                               + static_cast<std::size_t>(i) * per_image,
                           per_image) == 0;
            }
        },
        iters);
    for (const auto &frame : frames)
        leca_cost.wireBytes += frame.size();

    const double leca_bpp = addRow("LeCA", 24.0 / (leca_ws.rawBits / pixels),
                                   leca_acc, leca_cost);
    const double leca_bpp_raw8 =
        8.0 * static_cast<double>(leca_cost.symbols) / pixels;
    table.print(std::cout);

    const double encode_mb_s =
        total_symbol_bytes / 1e6 / (total_encode_ms / 1e3);
    const double decode_mb_s =
        total_symbol_bytes / 1e6 / (total_decode_ms / 1e3);
    std::cout << "\nLeCA wire: " << Table::num(leca_bpp, 3)
              << " bpp entropy-coded vs "
              << Table::num(leca_bpp_raw8, 3)
              << " bpp as raw int8 codes ("
              << Table::num(leca_bpp_raw8 / leca_bpp, 2)
              << "x from the entropy stage)\n"
              << "aggregate throughput: encode "
              << Table::num(encode_mb_s, 1) << " MB/s, decode "
              << Table::num(decode_mb_s, 1) << " MB/s\n";

    report.add("leca_bpp", leca_bpp, "bpp", Better::Lower);
    report.add("leca_bpp_raw8", leca_bpp_raw8, "bpp", Better::Lower);
    report.add("leca_wire_compression", leca_bpp_raw8 / leca_bpp, "x",
               Better::Higher);
    report.add("leca_acc", 100.0 * leca_acc, "%", Better::Higher);
    report.add("encode_mb_s", encode_mb_s, "MB/s", Better::Higher);
    report.add("decode_mb_s", decode_mb_s, "MB/s", Better::Higher);

    if (!all_exact || !leca_cost.exact) {
        std::cout << "FAIL: a wire stream did not decode bit-exactly\n";
        return 1;
    }
    if (leca_bpp >= leca_bpp_raw8) {
        std::cout << "FAIL: LeCA entropy-coded bpp "
                  << Table::num(leca_bpp, 3)
                  << " is not below the raw int8 code bpp "
                  << Table::num(leca_bpp_raw8, 3) << "\n";
        return 1;
    }
    return 0;
}
