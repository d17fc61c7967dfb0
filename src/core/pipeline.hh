/**
 * @file
 * The full LeCA machine-vision pipeline (Fig. 3(a)): encoder ->
 * decoder -> frozen backbone DNN, with modality switching and the
 * pixel-array noise injection of Sec. 5.3.
 */

#ifndef LECA_CORE_PIPELINE_HH
#define LECA_CORE_PIPELINE_HH

#include <memory>
#include <string>

#include "core/encoder.hh"
#include "nn/sequential.hh"
#include "sensor/noise.hh"

namespace leca {

/**
 * Encoder + decoder stacked before a (typically frozen) backbone, as
 * one Layer: the generic loops (data/trainloop.hh) train, evaluate and
 * refresh it, and data/serialize.hh checkpoints it.
 */
class LecaPipeline : public Layer
{
  public:
    struct Options
    {
        LecaConfig leca;
        CircuitConfig circuit;
        SensorConfig sensor;
        std::uint64_t seed = 1;
    };

    /**
     * @param backbone a pre-trained classifier; it is frozen on
     *                 construction (Sec. 3.4) and can be unfrozen for
     *                 the Sec. 6.4 ablation.
     */
    LecaPipeline(const Options &options,
                 std::unique_ptr<Sequential> backbone);

    LecaEncoder &encoder() { return *_encoder; }
    Sequential &decoder() { return *_decoder; }
    Sequential &backbone() { return *_backbone; }

    /** Switch the encoder modality (soft / hard / noisy). */
    void setModality(EncoderModality modality);
    EncoderModality modality() const { return _encoder->modality(); }

    /** Full forward pass to logits. */
    Tensor forward(const Tensor &images, Mode mode) override;

    /** Encoder+decoder only — the reconstructed image (Fig. 12). */
    Tensor decodeImages(const Tensor &images, Mode mode);

    /** Encoder only — the quantized feature map (Fig. 12). */
    Tensor encodeFeatures(const Tensor &images, Mode mode);

    /** Backpropagate through the whole stack; returns dL/d image. */
    Tensor backward(const Tensor &grad_logits) override;

    /**
     * Encoder, decoder, backbone: the order of every enumeration, so
     * params() lists the encoder's, the decoder's and then the
     * backbone's (which start frozen), and state() the decoder's and
     * then the backbone's batch-norm running statistics.
     */
    std::vector<Layer *>
    children() override
    {
        return {_encoder.get(), _decoder.get(), _backbone.get()};
    }
    std::vector<Param *> allParams() { return params(); }

    /** Unfreeze/refreeze the backbone (Sec. 6.4 ablation). */
    void setBackboneFrozen(bool frozen);

    /**
     * Summary of one quantize() conversion: every converted layer's
     * size and reconstruction error (DESIGN.md §12).
     */
    struct QuantizationReport
    {
        std::vector<QuantStat> layers;

        std::size_t fp32Bytes() const;  //!< total weight bytes before
        std::size_t quantBytes() const; //!< total codes+scales bytes after
        float maxAbsError() const;      //!< worst per-layer weight error
    };

    /**
     * Convert every dense weight (encoder conv in Soft modality, the
     * decoder and backbone Conv2d/Linear layers) to block-quantized
     * int8 for serving. One-way for this process: evaluation-mode
     * forwards run the int8 kernels afterwards, and training-mode
     * forwards (including refreshBatchNormStats) become a checked
     * error. Call after training and after any statistics refresh.
     */
    QuantizationReport quantize();

    /** True once quantize() or loadQuantized() has converted weights. */
    bool quantized() const { return _quantized; }

    /**
     * Persist the whole trained pipeline (encoder weights + ADC
     * boundary, decoder, backbone, and all batch-norm running
     * statistics) to one file.
     */
    void save(const std::string &path);

    /** Restore a pipeline saved with save(); shapes must match. */
    bool load(const std::string &path);

    /**
     * Persist the fp32 state AND the int8 weights (container kind 5),
     * so a serving replica restores quantized inference bit-exactly
     * without re-running quantization. Requires quantize() first.
     */
    void saveQuantized(const std::string &path);

    /** Restore a pipeline saved with saveQuantized(). */
    bool loadQuantized(const std::string &path);

    /** Noise stream used for pixel + analog noise in Noisy modality. */
    Rng &noiseRng() { return _noiseRng; }

  private:
    std::unique_ptr<LecaEncoder> _encoder;
    std::unique_ptr<Sequential> _decoder;
    std::unique_ptr<Sequential> _backbone;
    PixelNoiseModel _pixelNoise;
    Rng _noiseRng;
    bool _quantized = false;
};

} // namespace leca

#endif // LECA_CORE_PIPELINE_HH
