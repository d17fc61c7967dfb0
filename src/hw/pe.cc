#include "pe.hh"

#include <type_traits>

#include "util/check.hh"

namespace leca {

namespace {

/** The noise stream the chain's device draws from in @p mode. */
Rng *
modeStream(PeMode mode, Rng *noise_rng)
{
    LECA_CHECK(mode != PeMode::RealNoisy || noise_rng,
               "RealNoisy mode needs a noise stream");
    return mode == PeMode::RealNoisy ? noise_rng : nullptr;
}

} // namespace

Pe::Pe(const CircuitConfig &config)
    : _chain(AnalogChain::nominal(config)),
      _oBuffers(4, DiffBuffer(config.vCm))
{
}

Pe::Pe(const CircuitConfig &config, Rng &mc_rng)
    : _chain(AnalogChain::sample(config, mc_rng)),
      _oBuffers(4, DiffBuffer(config.vCm))
{
    // The paper calibrates ADC offset digitally (Sec. 4.4).
    _chain.adc.calibrate();
}

void
Pe::configureAdc(QBits qbits, double full_scale)
{
    _chain.adc.configure(qbits, full_scale);
}

void
Pe::startBlock()
{
    _oBuffers.assign(4, DiffBuffer(_chain.config.vCm));
}

void
Pe::loadRow(const std::array<double, 4> &pixel_voltages)
{
    _iBuffer = pixel_voltages;
    _stats.iBufferWrites += 4;
}

void
Pe::loadWeights(const std::vector<FlatKernel> &kernels, int kernel_base,
                int kernel_count, int row_in_block)
{
    LECA_CHECK(kernel_count >= 1 && kernel_count <= 4,
                "PE supports at most 4 kernels per pass");
    LECA_CHECK(row_in_block >= 0 && row_in_block < 4, "bad block row");
    for (int k = 0; k < kernel_count; ++k) {
        const FlatKernel &kernel =
            kernels[static_cast<std::size_t>(kernel_base + k)];
        for (int c = 0; c < 4; ++c) {
            _localSram[static_cast<std::size_t>(k) * 4 + c] =
                kernel.taps[static_cast<std::size_t>(row_in_block) * 4 + c];
        }
    }
    // 16 x 5-bit write from global SRAM (hidden behind pixel readout).
    _stats.localSramWriteBits += 16 * 5;
    _stats.globalSramReadBits += 16 * 5;
}

void
Pe::processRow(int kernel_count, PeMode mode, Rng *noise_rng)
{
    LECA_CHECK(kernel_count >= 1 && kernel_count <= 4,
                "bad kernel count");
    Rng *const stream = modeStream(mode, noise_rng);
    _chain.withDevice(mode == PeMode::Ideal, stream, [&](const auto &dev) {
        // Each i-buffer entry's PSF transfer, shared by all kernels.
        std::array<typename std::decay_t<decltype(dev)>::Level, 4> level{};
        for (std::size_t c = 0; c < level.size(); ++c)
            level[c] = dev.psf(_iBuffer[c]);
        // Kernels consecutively, i-buffer entries cyclically (Fig. 5(c)).
        for (int k = 0; k < kernel_count; ++k) {
            accumulateTaps(
                dev, &_localSram[static_cast<std::size_t>(k) * 4], 4,
                [&](int c) -> const auto & {
                    return level[static_cast<std::size_t>(c)];
                },
                _oBuffers[static_cast<std::size_t>(k)]);
        }
    });
    _stats.localSramReadBits += 5 * 4 * kernel_count;
    _stats.macOps += 4 * kernel_count;
}

std::vector<int>
Pe::readOfmap(int kernel_count, PeMode mode, Rng *noise_rng)
{
    std::vector<int> codes(static_cast<std::size_t>(kernel_count));
    Rng *const stream = modeStream(mode, noise_rng);
    _chain.withDevice(mode == PeMode::Ideal, stream, [&](const auto &dev) {
        for (int k = 0; k < kernel_count; ++k) {
            codes[static_cast<std::size_t>(k)] = _chain.adc.convert(
                readOut(dev, _oBuffers[static_cast<std::size_t>(k)]));
            ++_stats.adcConversions[_chain.adc.qbits().bits()];
        }
    });
    return codes;
}

} // namespace leca
