/**
 * @file
 * The LeCA encoder layer (Sec. 3.3) with its three training
 * modalities (Sec. 3.4):
 *
 *  - Soft:  a plain strided convolution followed by an STE quantizer —
 *           no hardware effects.
 *  - Hard:  the analytical circuit model in the forward path: raw-
 *           domain kernel flattening (Fig. 5(a)), PSF linear transfer,
 *           the exact SCM charge-redistribution recurrence of Eq. (3)
 *           on differential o-buffers with 4-bit+sign cap codes (STE),
 *           FVF linear transfer, and an ADC with a *trainable*
 *           quantization boundary. The backward pass is derived by
 *           hand through the recurrence.
 *  - Noisy: the hard model plus the extracted Monte-Carlo noise model
 *           of Sec. 5.3 (LUT mean transfers + Gaussian disturbances,
 *           per-code SCM step error, ADC offset).
 *
 * The single weight tensor [Nch, 3, K, K] is shared by all modalities;
 * hard/noisy require K = 2 (the Bayer flattening), matching the
 * hardware choice of Sec. 3.3.
 */

#ifndef LECA_CORE_ENCODER_HH
#define LECA_CORE_ENCODER_HH

#include <array>
#include <vector>

#include "analog/circuit_config.hh"
#include "analog/mismatch.hh"
#include "core/leca_config.hh"
#include "nn/layer.hh"
#include "sensor/sensor_config.hh"
#include "tensor/quant.hh"
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
     * Quantize the conv weight for int8 serving. Soft modality only:
     * the hard/noisy forward is the per-tap circuit recurrence, not a
     * GEMM, so there is nothing for int8 kernels to accelerate there
     * (and the cap-DAC already quantizes the weights in its own way).
     */
    void quantizeWeights(std::vector<QuantStat> &stats) override;
    std::vector<QuantTensor *> quantTensors() override { return {&_qweight}; }

    /** Switch forward model; resets the output scale to a sane value. */
    void setModality(EncoderModality modality);
    EncoderModality modality() const { return _modality; }

    /** Change Q_bit (the incremental training schedule, Sec. 3.4). */
    void setQbits(QBits qbits) { _config.qbits = qbits; }
    QBits qbits() const { return _config.qbits; }

    /** Install the extracted noise model used by the Noisy modality. */
    void setNoiseModel(AnalogNoiseModel model);

    /** Noise stream for the Noisy modality (owned by the caller). */
    void setNoiseRng(Rng *rng) { _noiseRng = rng; }

    /** Trained convolution weight [Nch, 3, K, K]. */
    Param &weight() { return _weight; }

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

    Param _weight;
    Param _outScale;
    QuantTensor _qweight; //!< int8 weights; empty until quantizeWeights

    AnalogNoiseModel _noiseModel;
    bool _hasNoiseModel = false;
    Rng *_noiseRng = nullptr;

    // ---- Soft-mode cache ----
    Tensor _softInput; //!< forward input; backward recomputes im2col
    Tensor _softPre;   //!< conv output before scaling/quantization
    std::vector<int> _inShape;

    // ---- Hard/Noisy-mode cache (per output element, 16 steps) ----
    std::vector<float> _stepVin;   //!< PSF output per step
    std::vector<float> _stepVprev; //!< rail value before the step
    std::vector<float> _diff;      //!< FVF differential per element

    Tensor forwardSoft(const Tensor &x, Mode mode);
    Tensor backwardSoft(const Tensor &grad_out);
    Tensor forwardHard(const Tensor &x, Mode mode, bool noisy);
    Tensor backwardHard(const Tensor &grad_out);

    /** Raw-domain tap description for hard mode. */
    struct Tap
    {
        int channel;   //!< RGB channel the tap reads
        int py, px;    //!< pixel within the 2x2 RGB block
        float factor;  //!< 1 for R/B, 0.5 for the duplicated G
    };
    static const std::array<Tap, 16> &rawTaps();

    /** Per-(kernel, tap) cap-DAC setting; see encoder.cc. */
    struct TapCode;

    /** Fill @p codes ([Nch][16]) from the current weights. */
    void tapCodesInto(TapCode *codes) const;
};

} // namespace leca

#endif // LECA_CORE_ENCODER_HH
