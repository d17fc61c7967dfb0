/**
 * @file
 * Hardware weight handling: quantization of trained encoder weights to
 * the 5-bit (sign + 4-bit magnitude) SCM codes, and kernel flattening
 * from the RGB domain to the Bayer raw domain (Fig. 5(a)), shared by
 * chip programming and the hard/noisy encoder.
 */

#ifndef LECA_HW_WEIGHTS_HH
#define LECA_HW_WEIGHTS_HH

#include <array>
#include <vector>

#include "analog/circuit_config.hh"
#include "analog/scm.hh"
#include "tensor/tensor.hh"

namespace leca {

/** One raw-domain tap of a flattened kernel: the RGB weight it reads. */
struct BayerTap
{
    int channel;  //!< RGB channel: 0 = R, 1 = G, 2 = B
    int py, px;   //!< pixel within the 2x2 RGB kernel
    float factor; //!< 1 for R/B, 0.5 for the duplicated G

    /** Offset of the tap's weight within one [3, 2, 2] kernel. */
    int weightOffset() const { return (channel * 2 + py) * 2 + px; }
};

/**
 * The raw 4x4 block, row-major: RGB pixel (y, x) occupies the RGGB cell
 * at (2y, 2x), the green weight halved on both green sites (Fig. 5(a)).
 */
inline constexpr std::array<BayerTap, 16> kBayerTaps = {{
    {0, 0, 0, 1.0f}, {1, 0, 0, 0.5f}, {0, 0, 1, 1.0f}, {1, 0, 1, 0.5f},
    {1, 0, 0, 0.5f}, {2, 0, 0, 1.0f}, {1, 0, 1, 0.5f}, {2, 0, 1, 1.0f},
    {0, 1, 0, 1.0f}, {1, 1, 0, 0.5f}, {0, 1, 1, 1.0f}, {1, 1, 1, 0.5f},
    {1, 1, 0, 0.5f}, {2, 1, 0, 1.0f}, {1, 1, 1, 0.5f}, {2, 1, 1, 1.0f},
}};

/**
 * Quantize a real weight to a sign+magnitude SCM code. Weights beyond
 * @p w_scale clamp to the full code; a non-finite weight throws
 * CheckError.
 *
 * @param w          the trained weight
 * @param w_scale    |w| = w_scale maps to the full DAC code
 * @param dac_steps  number of magnitude steps (15 for 4-bit)
 */
ScmWeight quantizeWeight(float w, float w_scale, int dac_steps = 15);

/**
 * One encoder kernel flattened onto the raw Bayer 4x4 block
 * (row-major, 16 entries).
 */
struct FlatKernel
{
    std::vector<ScmWeight> taps; //!< 16 sign+magnitude codes
};

/**
 * Flatten kernel @p k of trained RGB weights [Nch, 3, 2, 2] into its 16
 * raw-domain cap codes @p taps (kBayerTaps order) of a @p dac_steps DAC.
 */
void flattenKernelInto(const Tensor &rgb_weights, int k, float w_scale,
                       int dac_steps, ScmWeight *taps);

/**
 * Flatten trained RGB encoder weights [Nch, 3, 2, 2] into raw-domain
 * 4x4 kernels (Fig. 5(a)).
 *
 * @param rgb_weights encoder weight tensor [Nch, 3, 2, 2]
 * @param w_scale     weight quantization scale
 * @param circuit     the circuit whose cap DAC the codes program
 * @return one FlatKernel per output channel
 */
std::vector<FlatKernel> flattenKernels(const Tensor &rgb_weights,
                                       float w_scale,
                                       const CircuitConfig &circuit = {});

} // namespace leca

#endif // LECA_HW_WEIGHTS_HH
