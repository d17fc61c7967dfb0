/**
 * @file
 * The complete LeCA sensor chip (Fig. 3(b)): pixel array + column-
 * parallel PE array + ADC array + global SRAM + controllers, with the
 * row-by-row dataflow and repetitive readout of Sec. 4.1/4.2.
 */

#ifndef LECA_HW_SENSOR_CHIP_HH
#define LECA_HW_SENSOR_CHIP_HH

#include <cstdint>
#include <vector>

#include "hw/pe.hh"
#include "hw/stats.hh"
#include "sensor/pixel_array.hh"

namespace leca {

/** Static configuration of a LeCA sensor chip instance. */
struct ChipConfig
{
    int rgbHeight = 224;          //!< RGB frame height (raw = 2x)
    int rgbWidth = 224;           //!< RGB frame width (raw = 2x)
    CircuitConfig circuit;        //!< analog PE parameters
    SensorConfig sensor;          //!< pixel front-end parameters
    QBits qbits{3.0};             //!< ADC resolution (Q_bit)
    double adcFullScale = 0.35;   //!< programmable ADC boundary (V)
    bool monteCarlo = true;       //!< sample per-PE device mismatch
    std::uint64_t mcSeed = 2023;  //!< die seed
};

/**
 * Frame-level simulator of the LeCA sensor.
 *
 * encodeFrame() runs the exact hardware schedule: for every band of 4
 * raw rows and every kernel group (repetitive readout when Nch > 4),
 * rows are read out once, buffered per-PE, multiplied against the
 * local-SRAM weights, locally reduced on the o-buffers, and converted
 * by the per-PE ADC after the fourth row.
 */
class LecaSensorChip
{
  public:
    explicit LecaSensorChip(const ChipConfig &config);

    /** Program the encoder kernels (global SRAM); checks their codes. */
    void loadKernels(std::vector<FlatKernel> kernels);

    /** Number of programmed output channels. */
    int nch() const { return static_cast<int>(_kernels.size()); }

    /**
     * Capture an RGB scene and run the LeCA encode.
     *
     * @param rgb_scene    [3, rgbHeight, rgbWidth] in [0,1]
     * @param mode         analog fidelity (ideal / real / real+noise)
     * @param rng          noise stream (sensor + analog)
     * @param sensor_noise add pixel shot/read noise
     * @return ADC codes as floats, [Nch, rgbHeight/2, rgbWidth/2]
     */
    Tensor encodeFrame(const Tensor &rgb_scene, PeMode mode, Rng &rng,
                       bool sensor_noise = true);

    /**
     * Normal sensing mode (Sec. 4.3): pixels bypass the PE and are
     * digitized at 8 bits. Returns the quantized raw frame
     * [2 rgbHeight, 2 rgbWidth] in [0,1] steps of 1/255.
     */
    Tensor normalModeCapture(const Tensor &rgb_scene, Rng &rng,
                             bool sensor_noise = true);

    /** Map ADC codes to features in [-1, 1] for the decoder. */
    Tensor codesToFeatures(const Tensor &codes) const;

    /** Aggregate chip + PE activity since the last reset. */
    ChipStats stats() const;
    void resetStats();

    const ChipConfig &config() const { return _config; }
    int peCount() const { return static_cast<int>(_pes.size()); }
    Pe &pe(int i) { return _pes[static_cast<std::size_t>(i)]; }

  private:
    ChipConfig _config;
    PixelArray _pixelArray;
    std::vector<Pe> _pes;
    std::vector<FlatKernel> _kernels;
    ChipStats _chipStats; //!< chip-level counters (pixels, SRAM, link)
};

} // namespace leca

#endif // LECA_HW_SENSOR_CHIP_HH
