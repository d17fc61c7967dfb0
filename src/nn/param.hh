/**
 * @file
 * Trainable parameter: a value tensor paired with its gradient
 * accumulator. Layers expose Param pointers; optimizers consume them.
 */

#ifndef LECA_NN_PARAM_HH
#define LECA_NN_PARAM_HH

#include "tensor/tensor.hh"

namespace leca {

/**
 * A learnable tensor with its gradient.
 *
 * `frozen` reproduces the paper's frozen-backbone training (Sec. 3.4,
 * "Joint training with backbone DNN"): gradients still flow *through*
 * the parameter's layer to the layers before it, but a frozen
 * parameter's own gradient is never computed — a layer whose Params
 * are all frozen at its Train-mode forward computes dL/d input only
 * and leaves every `grad` untouched — and optimizers skip its update.
 * Change `frozen` between train steps, not between a forward and its
 * backward (the backward throws CheckError).
 */
struct Param
{
    Tensor value;
    Tensor grad;
    bool frozen = false;

    Param() = default;

    explicit Param(Tensor v)
        : value(std::move(v)), grad(Tensor::zeros(value.shape()))
    {
    }

    /** Reset the gradient accumulator to zero. */
    void zeroGrad() { grad.fill(0.0f); }
};

} // namespace leca

#endif // LECA_NN_PARAM_HH
