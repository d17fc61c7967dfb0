#include "sensor_chip.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sensor/bayer.hh"
#include "util/check.hh"
#include "util/parallel.hh"

namespace leca {

LecaSensorChip::LecaSensorChip(const ChipConfig &config)
    : _config(config),
      _pixelArray(config.sensor, 2 * config.rgbHeight, 2 * config.rgbWidth)
{
    LECA_CHECK(config.rgbHeight % 2 == 0 && config.rgbWidth % 2 == 0,
                "RGB frame extents must be even");
    const int pe_count = (2 * config.rgbWidth) / 4;
    _pes.reserve(static_cast<std::size_t>(pe_count));
    Rng mc(config.mcSeed);
    for (int i = 0; i < pe_count; ++i) {
        if (config.monteCarlo) {
            _pes.emplace_back(config.circuit, mc);
        } else {
            _pes.emplace_back(config.circuit);
        }
        _pes.back().configureAdc(config.qbits, config.adcFullScale);
    }
}

void
LecaSensorChip::loadKernels(std::vector<FlatKernel> kernels)
{
    LECA_CHECK(!kernels.empty(), "need at least one kernel");
    const int steps = _config.circuit.dacSteps();
    for (const FlatKernel &kernel : kernels) {
        LECA_CHECK(kernel.taps.size() == 16, "a kernel has 16 taps, got ",
                   kernel.taps.size());
        for (const ScmWeight &w : kernel.taps)
            LECA_CHECK(w.magnitude >= 0 && w.magnitude <= steps, "cap code ",
                       w.magnitude, " outside [0, ", steps, "]");
    }
    _kernels = std::move(kernels);
    // Programming the encoder writes Nch x 16 x 5 bits of global SRAM.
    _chipStats.globalSramWriteBits +=
        static_cast<std::int64_t>(_kernels.size()) * 16 * 5;
}

Tensor
LecaSensorChip::encodeFrame(const Tensor &rgb_scene, PeMode mode, Rng &rng,
                            bool sensor_noise)
{
    LECA_CHECK(!_kernels.empty(), "kernels not programmed");
    LECA_CHECK(rgb_scene.dim() == 3 && rgb_scene.size(0) == 3 &&
                rgb_scene.size(1) == _config.rgbHeight &&
                rgb_scene.size(2) == _config.rgbWidth,
                "scene shape mismatch");

    const Tensor raw = mosaic(rgb_scene);
    _pixelArray.expose(raw, rng, sensor_noise);

    const int raw_rows = _pixelArray.rows();
    const int raw_cols = _pixelArray.cols();
    const int of_h = raw_rows / 4;
    const int of_w = raw_cols / 4;
    const int nch = static_cast<int>(_kernels.size());
    const int passes = (nch + 3) / 4;

    Tensor ofmap({nch, of_h, of_w});
    float *ofmap_data = ofmap.data();
    const std::int64_t of_plane = static_cast<std::int64_t>(of_h) * of_w;
    Rng *noise_rng = mode == PeMode::RealNoisy ? &rng : nullptr;

    const int pe_count = static_cast<int>(_pes.size());
    for (int band = 0; band < of_h; ++band) {
        for (int pass = 0; pass < passes; ++pass) {
            const int kernel_base = pass * 4;
            const int kernel_count = std::min(4, nch - kernel_base);
            // Prefetch the band's four rows so the per-PE column sweep
            // below has no shared readout state.
            std::array<std::vector<double>, 4> band_voltages;
            for (int r = 0; r < 4; ++r) {
                band_voltages[static_cast<std::size_t>(r)] =
                    _pixelArray.readRowVoltages(band * 4 + r);
                _chipStats.pixelReads += raw_cols;
            }
            // One noise stream per PE, forked serially before the
            // parallel region: the stream a PE consumes depends only on
            // its column index, keeping noisy captures bit-identical
            // for every thread count.
            std::vector<Rng> pe_rngs;
            if (noise_rng)
                pe_rngs = Rng::split(
                    *noise_rng, static_cast<std::size_t>(pe_count));
            parallelFor(0, pe_count, 1,
                        [&](std::int64_t p0, std::int64_t p1) {
                for (int p = static_cast<int>(p0); p < p1; ++p) {
                    Pe &pe = _pes[static_cast<std::size_t>(p)];
                    Rng *pe_rng = noise_rng
                                      ? &pe_rngs[static_cast<std::size_t>(p)]
                                      : nullptr;
                    pe.startBlock();
                    for (int r = 0; r < 4; ++r) {
                        const auto &voltages =
                            band_voltages[static_cast<std::size_t>(r)];
                        pe.loadWeights(_kernels, kernel_base, kernel_count,
                                       r);
                        pe.loadRow(
                            {voltages[static_cast<std::size_t>(4 * p)],
                             voltages[static_cast<std::size_t>(4 * p + 1)],
                             voltages[static_cast<std::size_t>(4 * p + 2)],
                             voltages[static_cast<std::size_t>(4 * p + 3)]});
                        pe.processRow(kernel_count, mode, pe_rng);
                    }
                    const auto codes =
                        pe.readOfmap(kernel_count, mode, pe_rng);
                    float *out = ofmap_data
                                 + static_cast<std::int64_t>(kernel_base)
                                       * of_plane
                                 + static_cast<std::int64_t>(band) * of_w + p;
                    for (int k = 0; k < kernel_count; ++k)
                        out[k * of_plane] = static_cast<float>(
                            codes[static_cast<std::size_t>(k)]);
                }
            });
        }
    }

    // Quantized ofmap goes through the global SRAM and off-chip.
    const double bits = _config.qbits.bits();
    const auto ofmap_bits = static_cast<std::int64_t>(
        std::llround(static_cast<double>(ofmap.numel()) * bits));
    _chipStats.globalSramWriteBits += ofmap_bits;
    _chipStats.globalSramReadBits += ofmap_bits;
    _chipStats.outputLinkBits += ofmap_bits;
    return ofmap;
}

Tensor
LecaSensorChip::normalModeCapture(const Tensor &rgb_scene, Rng &rng,
                                  bool sensor_noise)
{
    const Tensor raw = mosaic(rgb_scene);
    _pixelArray.expose(raw, rng, sensor_noise);
    const int rows = _pixelArray.rows(), cols = _pixelArray.cols();
    Tensor out({rows, cols});
    float *out_data = out.data();
    const SensorConfig &sc = _config.sensor;
    parallelFor(0, rows, 1, [&](std::int64_t r0, std::int64_t r1) {
        for (int r = static_cast<int>(r0); r < r1; ++r) {
            const auto voltages = _pixelArray.readRowVoltages(r);
            float *row = out_data + static_cast<std::int64_t>(r) * cols;
            for (int c = 0; c < cols; ++c) {
                const int code = quantizeCode(
                    static_cast<float>(sc.voltageToDigital(
                        voltages[static_cast<std::size_t>(c)])),
                    0.0f, 1.0f, 256);
                row[c] = static_cast<float>(code) / 255.0f;
            }
        }
    });
    _chipStats.pixelReads += static_cast<std::int64_t>(rows) * cols;
    // All pixels digitized at 8 bits, stored, and streamed out.
    const std::int64_t pixels = static_cast<std::int64_t>(rows) * cols;
    _chipStats.adcConversions[8.0] += pixels;
    _chipStats.globalSramWriteBits += pixels * 8;
    _chipStats.globalSramReadBits += pixels * 8;
    _chipStats.outputLinkBits += pixels * 8;
    return out;
}

Tensor
LecaSensorChip::codesToFeatures(const Tensor &codes) const
{
    const int levels = _config.qbits.levels();
    Tensor features(codes.shape());
    for (std::size_t i = 0; i < codes.numel(); ++i) {
        features[i] = 2.0f * codes[i] / static_cast<float>(levels - 1)
                      - 1.0f;
    }
    return features;
}

ChipStats
LecaSensorChip::stats() const
{
    ChipStats total = _chipStats;
    for (const auto &pe : _pes)
        total += pe.stats();
    return total;
}

void
LecaSensorChip::resetStats()
{
    _chipStats = ChipStats{};
    for (auto &pe : _pes)
        pe.resetStats();
}

} // namespace leca
