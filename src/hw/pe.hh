/**
 * @file
 * One column-parallel processing element (Fig. 5(b,c), Fig. 6).
 *
 * A PE serves four adjacent pixel columns. It contains four i-buffers,
 * a 16x5-bit local weight SRAM, one switched-capacitor multiplier, and
 * four differential o-buffers (one per kernel of the active group).
 * The dataflow is input-stationary: each buffered ifmap row is reused
 * across the four kernels, and psums are reduced locally on the
 * o-buffers across the four rows of a block.
 */

#ifndef LECA_HW_PE_HH
#define LECA_HW_PE_HH

#include <array>
#include <vector>

#include "analog/chain.hh"
#include "hw/stats.hh"
#include "hw/weights.hh"

namespace leca {

/** Fidelity of the analog simulation inside the PE. */
enum class PeMode
{
    Ideal,    //!< analytic models, no mismatch, no noise (hard model)
    Real,     //!< instance mismatch, deterministic (one die, no noise)
    RealNoisy //!< instance mismatch + per-sample noise
};

/**
 * A single PE. Constructing with a Monte-Carlo stream gives the PE its
 * own sampled device mismatch (column-to-column variation).
 */
class Pe
{
  public:
    /** Nominal PE (ideal devices). */
    explicit Pe(const CircuitConfig &config);

    /** PE with Monte-Carlo sampled devices. */
    Pe(const CircuitConfig &config, Rng &mc_rng);

    /** Configure the ADC resolution and programmable full scale. */
    void configureAdc(QBits qbits, double full_scale);

    /** Reset the four o-buffers to V_CM (start of a 4x4 block). */
    void startBlock();

    /**
     * Write one ifmap row segment (4 analog pixel voltages) into the
     * i-buffers (controller-s, step 1 of Sec. 4.2).
     */
    void loadRow(const std::array<double, 4> &pixel_voltages);

    /**
     * Write one row of weights for up to 4 kernels into the local SRAM
     * (16 x 5 bits) — hidden behind the pixel readout in hardware.
     */
    void loadWeights(const std::vector<FlatKernel> &kernels,
                     int kernel_base, int kernel_count, int row_in_block);

    /**
     * Run the 16 MAC operations of one row (controller-f, step 2):
     * kernels consecutively, i-buffers cyclically; psums accumulate on
     * the per-kernel o-buffers.
     */
    void processRow(int kernel_count, PeMode mode, Rng *noise_rng);

    /**
     * After four rows, convert the o-buffers (step 4) and return one
     * code per kernel.
     */
    std::vector<int> readOfmap(int kernel_count, PeMode mode,
                               Rng *noise_rng);

    const ChipStats &stats() const { return _stats; }
    void resetStats() { _stats = ChipStats{}; }
    AnalogChain &chain() { return _chain; }

  private:
    AnalogChain _chain;
    std::array<double, 4> _iBuffer{};
    std::array<ScmWeight, 16> _localSram{}; //!< [kernel][column]
    std::vector<DiffBuffer> _oBuffers;
    ChipStats _stats;
};

} // namespace leca

#endif // LECA_HW_PE_HH
