/**
 * @file
 * The LeCA encoder layer (Sec. 3.3) with its three training
 * modalities (Sec. 3.4):
 *
 *  - Soft:  a plain strided convolution followed by an STE quantizer —
 *           no hardware effects.
 *  - Hard:  the analytical circuit model in the forward path: the
 *           chip's raw-domain kernel flattening (Fig. 5(a)) to 4-bit+sign
 *           cap codes (hw/weights, STE), the chip's analog chain
 *           (analog/chain.hh) over its IdealDevice, and an ADC with a
 *           *trainable* quantization boundary — so it computes the
 *           chip's Ideal codes by construction. The backward pass is
 *           derived by hand through the Eq. (3) recurrence.
 *  - Noisy: the same chain over the ExtractedDevice, the Monte-Carlo
 *           noise model of Sec. 5.3.
 *
 * The single weight tensor [Nch, 3, K, K] is shared by all modalities;
 * it belongs to the soft modality's Conv2d (K×K, stride K, no pad, no
 * bias), which Hard and Noisy read. Hard/noisy require K = 2 (the
 * Bayer flattening), matching the hardware choice of Sec. 3.3.
 */

#ifndef LECA_CORE_ENCODER_HH
#define LECA_CORE_ENCODER_HH

#include <vector>

#include "analog/circuit_config.hh"
#include "analog/mismatch.hh"
#include "core/leca_config.hh"
#include "nn/conv.hh"
#include "sensor/sensor_config.hh"
#include "util/rng.hh"

namespace leca {

/** Which forward model the encoder runs (Sec. 3.4). */
enum class EncoderModality { Soft, Hard, Noisy };

/**
 * Single-layer compressive encoder with quantized output features in
 * [-1, 1].
 */
class LecaEncoder : public Layer
{
  public:
    LecaEncoder(const LecaConfig &config, const CircuitConfig &circuit,
                const SensorConfig &sensor, Rng &init_rng);

    Tensor forward(const Tensor &x, Mode mode) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;

    /**
     * Quantize the soft conv's weight for int8 serving; the quantized
     * soft forward then runs the conv over the dequantized codes
     * (Conv2d's rule). Soft modality only: the hard/noisy forward is
     * the per-tap circuit recurrence, not a GEMM (and the cap-DAC
     * already quantizes the weights in its own way).
     */
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override
    {
        return _conv.quantTensors();
    }

    /** Switch forward model; resets the output scale to a sane value. */
    void setModality(EncoderModality modality);
    EncoderModality modality() const { return _modality; }

    /** Change Q_bit (the incremental training schedule, Sec. 3.4). */
    void setQbits(QBits qbits) { _config.qbits = qbits; }
    QBits qbits() const { return _config.qbits; }

    /** Install the Noisy modality's extracted model; rejects a partial one. */
    void setNoiseModel(AnalogNoiseModel model);

    /** Noise stream for the Noisy modality (owned by the caller). */
    void setNoiseRng(Rng *rng) { _noiseRng = rng; }

    /** Trained convolution weight [Nch, 3, K, K]. */
    Param &weight() { return _conv.weight(); }

    /**
     * Trainable output scale: the conv-output clip range in Soft mode,
     * the ADC full-scale boundary (volts) in Hard/Noisy mode.
     */
    Param &outScale() { return _outScale; }

    /** Weight magnitude that maps to the full cap-DAC code. */
    float weightScale() const { return _weightScale; }

    const LecaConfig &config() const { return _config; }
    const CircuitConfig &circuit() const { return _circuit; }

  private:
    LecaConfig _config;
    CircuitConfig _circuit;
    SensorConfig _sensor;
    EncoderModality _modality = EncoderModality::Soft;
    float _weightScale = 1.0f;

    Conv2d _conv; //!< the soft conv; owns the weight every modality reads
    Param _outScale;

    AnalogNoiseModel _noiseModel;
    bool _hasNoiseModel = false;
    Rng *_noiseRng = nullptr;

    Tensor _softPre; //!< soft conv output before scaling/quantization

    // ---- Hard/Noisy-mode cache (per output element, 16 steps) ----
    std::vector<int> _inShape;
    std::vector<float> _stepVin;   //!< PSF output per step
    std::vector<float> _stepVprev; //!< rail value before the step
    std::vector<float> _diff;      //!< FVF differential per element

    Tensor forwardSoft(const Tensor &x, Mode mode);
    Tensor backwardSoft(const Tensor &grad_out);
    Tensor forwardHard(const Tensor &x, Mode mode, bool noisy);
    Tensor backwardHard(const Tensor &grad_out);
};

} // namespace leca

#endif // LECA_CORE_ENCODER_HH
