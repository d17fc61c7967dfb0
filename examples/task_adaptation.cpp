/**
 * @file
 * Task adaptation demo (Sec. 6.4 "System deployment"): LeCA adapts to
 * downstream tasks beyond classification by re-running the same
 * training/fine-tuning process with NO change to the hardware.
 *
 * Here the downstream task is *regression*: predict the (x, y) centre
 * of the class shape in the image. The same encoder architecture (and
 * therefore the same PE array, cap DACs and ADCs) is re-trained under
 * an MSE objective; only the programmable weights and the ADC boundary
 * register change.
 */

#include <cmath>
#include <iostream>

#include "core/decoder.hh"
#include "core/encoder.hh"
#include "nn/activation.hh"
#include "nn/conv.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "nn/pool.hh"
#include "nn/sequential.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace {

using namespace leca;

/** Render an image with a bright disc at (cx, cy) in [0,1]^2. */
Tensor
renderDiscImage(double cx, double cy, int hw, Rng &rng)
{
    Tensor img({3, hw, hw});
    const double radius = 0.15;
    for (int y = 0; y < hw; ++y)
        for (int x = 0; x < hw; ++x) {
            const double u = (x + 0.5) / hw, v = (y + 0.5) / hw;
            const double d = std::hypot(u - cx, v - cy);
            const double value = (d < radius ? 0.8 : 0.3)
                                 + rng.gaussian(0.0, 0.02);
            for (int c = 0; c < 3; ++c)
                img.at(c, y, x) = static_cast<float>(
                    std::clamp(value + 0.05 * c, 0.0, 1.0));
        }
    return img;
}

} // namespace

int
main()
{
    using namespace leca;
    const int hw = 16, n_train = 256, n_val = 64;

    // Dataset: images + (cx, cy) regression targets.
    Rng rng(5);
    Tensor train_x({n_train, 3, hw, hw}), train_y({n_train, 2});
    Tensor val_x({n_val, 3, hw, hw}), val_y({n_val, 2});
    auto fill = [&](Tensor &xs, Tensor &ys, int count) {
        for (int i = 0; i < count; ++i) {
            const double cx = rng.uniform(0.25, 0.75);
            const double cy = rng.uniform(0.25, 0.75);
            const Tensor img = renderDiscImage(cx, cy, hw, rng);
            std::copy(img.data(), img.data() + img.numel(),
                      xs.data() + static_cast<std::size_t>(i)
                                      * img.numel());
            ys.at(i, 0) = static_cast<float>(cx);
            ys.at(i, 1) = static_cast<float>(cy);
        }
    };
    fill(train_x, train_y, n_train);
    fill(val_x, val_y, n_val);

    // Same LeCA encoder hardware configuration as the classifier demos
    // (K = 2, Nch = 4, Qbit = 3) + decoder + a small regression head.
    LecaConfig cfg;
    cfg.nch = 4;
    cfg.qbits = QBits(3.0);
    cfg.decoderDncnnLayers = 1;
    cfg.decoderFilters = 8;
    Rng init(7);
    LecaEncoder encoder(cfg, CircuitConfig{}, SensorConfig{}, init);
    // Curriculum as in classification (Sec. 3.4): soft pre-training,
    // then hardware-model fine-tuning.
    encoder.setModality(EncoderModality::Soft);
    const auto decoder = makeDecoder(cfg, init);
    Sequential head;
    head.emplace<Conv2d>(3, 8, 3, 2, 1, true, init);
    head.emplace<Relu>();
    head.emplace<Flatten>(); // position regression needs spatial info
    head.emplace<Linear>(8 * (hw / 2) * (hw / 2), 2, init);

    std::vector<Param *> params = encoder.params();
    for (Param *p : decoder->params())
        params.push_back(p);
    for (Param *p : head.params())
        params.push_back(p);
    Adam adam(params, 3e-3);
    MseLoss loss;

    auto val_error = [&]() {
        const Tensor features = encoder.forward(val_x, Mode::Eval);
        const Tensor decoded = decoder->forward(features, Mode::Eval);
        const Tensor pred = head.forward(decoded, Mode::Eval);
        double err = 0.0;
        for (int i = 0; i < n_val; ++i)
            err += std::hypot(pred.at(i, 0) - val_y.at(i, 0),
                              pred.at(i, 1) - val_y.at(i, 1));
        return err / n_val;
    };

    printBanner(std::cout,
                "LeCA re-targeted to shape-centre regression (hard "
                "modality, same hardware)");
    std::cout << "mean centre error before training: "
              << Table::num(val_error(), 3) << " (image widths)\n";

    const int batch = 32;
    const int total_epochs = 30;
    for (int epoch = 0; epoch < total_epochs; ++epoch) {
        if (epoch == total_epochs / 2) {
            encoder.setModality(EncoderModality::Hard);
            std::cout << "-- switching encoder to the hard (circuit) "
                         "model --\n";
        }
        double epoch_loss = 0.0;
        for (int begin = 0; begin < n_train; begin += batch) {
            Tensor xb({batch, 3, hw, hw}), yb({batch, 2});
            std::copy(train_x.data() + begin * 3 * hw * hw,
                      train_x.data() + (begin + batch) * 3 * hw * hw,
                      xb.data());
            std::copy(train_y.data() + begin * 2,
                      train_y.data() + (begin + batch) * 2, yb.data());
            adam.zeroGrad();
            const Tensor features = encoder.forward(xb, Mode::Train);
            const Tensor decoded = decoder->forward(features, Mode::Train);
            const Tensor pred = head.forward(decoded, Mode::Train);
            epoch_loss += loss.forward(pred, yb);
            const Tensor d_decoded = head.backward(loss.backward());
            const Tensor d_features = decoder->backward(d_decoded);
            encoder.backward(d_features);
            adam.step();
        }
        if (epoch % 4 == 3)
            std::cout << "epoch " << epoch + 1 << ": train MSE "
                      << Table::num(epoch_loss / (n_train / batch), 4)
                      << ", val centre error "
                      << Table::num(val_error(), 3) << "\n";
    }

    const double final_err = val_error();
    std::cout << "\nfinal mean centre error: " << Table::num(final_err, 3)
              << " image widths (disc radius is 0.15)\n";
    std::cout << "hardware unchanged: same K=2 kernels, cap DAC codes "
                 "and ADC — only the programmable weights moved "
                 "(Sec. 6.4).\n";
    return final_err < 0.1 ? 0 : 1;
}
