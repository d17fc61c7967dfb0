/**
 * @file
 * LeCA design-point configuration: the encoder parameters (K, N_ch,
 * Q_bit) of Sec. 3.3, the decoder hyper-parameters of Table 2, and the
 * compression ratio of Eq. (1).
 */

#ifndef LECA_CORE_LECA_CONFIG_HH
#define LECA_CORE_LECA_CONFIG_HH

#include "nn/quantize.hh"
#include "util/check.hh"

namespace leca {

/** One LeCA encoder/decoder design point. */
struct LecaConfig
{
    // Encoder (Sec. 3.3). K is both kernel size and stride.
    int kernel = 2;
    int nch = 8;
    QBits qbits{3.0};
    int inChannels = 3;

    // Decoder (Table 2). The paper uses M = 15 DnCNN layers with
    // F = 64 filters; the bench suite defaults to a smaller decoder
    // that preserves the architecture at CPU-friendly cost.
    int decoderDncnnLayers = 3; //!< M
    int decoderFilters = 16;    //!< F
    int decoderKernel = 3;      //!< K_d

    /** Full-resolution reference bit depth (Q_full = 8). */
    static constexpr double qFull = 8.0;

    /** Compression ratio per Eq. (1). */
    double
    compressionRatio() const
    {
        return static_cast<double>(kernel) * kernel * inChannels * qFull
               / (static_cast<double>(nch) * qbits.bits());
    }

    /**
     * Validate the design point before building encoder/decoder models
     * from it. Throws leca::CheckError on violation.
     */
    void
    validate() const
    {
        LECA_CHECK(kernel >= 1 && kernel <= 16, "encoder kernel ", kernel,
                   " outside [1, 16]");
        LECA_CHECK(nch >= 1 && nch <= 256, "encoder channels ", nch,
                   " outside [1, 256]");
        LECA_CHECK(inChannels >= 1, "input channels ", inChannels);
        // levels() validates the Q_bit value itself.
        LECA_CHECK(qbits.levels() >= 2, "quantizer needs >= 2 levels");
        LECA_CHECK(decoderDncnnLayers >= 0, "decoder DnCNN layers ",
                   decoderDncnnLayers);
        LECA_CHECK(decoderFilters >= 1, "decoder filters ", decoderFilters);
        LECA_CHECK(decoderKernel >= 1 && decoderKernel % 2 == 1,
                   "decoder kernel ", decoderKernel,
                   " must be odd and positive");
        LECA_CHECK(compressionRatio() >= 1.0,
                   "design point expands instead of compressing: CR = ",
                   compressionRatio());
    }
};

} // namespace leca

#endif // LECA_CORE_LECA_CONFIG_HH
