#include "linear.hh"

#include "nn/init.hh"
#include "tensor/ops.hh"
#include "util/check.hh"

namespace leca {

Linear::Linear(int in_features, int out_features, Rng &rng)
    : _in(in_features), _out(out_features),
      _weight(Tensor({out_features, in_features})),
      _bias(Tensor({out_features}))
{
    LECA_CHECK(in_features > 0 && out_features > 0, "Linear features ",
               in_features, " -> ", out_features);
    xavierInit(_weight.value, in_features, out_features, rng);
}

Tensor
Linear::forward(const Tensor &x, Mode mode)
{
    LECA_CHECK(x.dim() == 2 && x.size(1) == _in, "Linear(", _in, " -> ", _out,
               ") input shape ", detail::formatShape(x.shape()));
    if (!_qweight.empty()) {
        LECA_CHECK(mode == Mode::Eval,
                   "quantized Linear cannot run a Train-mode forward");
        Tensor y({x.size(0), _out});
        linearForwardQuant(x.data(), x.size(0), _qweight,
                           _bias.value.data(), y.data());
        return y;
    }
    // y = x * W^T
    Tensor y = matmulTransB(x, _weight.value);
    const int n = y.size(0);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < _out; ++j)
            y.at(i, j) += _bias.value[static_cast<std::size_t>(j)];
    if (mode == Mode::Train) {
        _inN = n;
        _fwdFrozen = frozen();
        if (!_fwdFrozen)
            _input = x;
    }
    return y;
}

Tensor
Linear::backward(const Tensor &grad_out)
{
    LECA_CHECK(_inN > 0, "Linear backward without forward");
    LECA_CHECK(frozen() == _fwdFrozen,
               "Linear frozen state changed between forward and backward");
    LECA_CHECK(grad_out.dim() == 2 && grad_out.size(1) == _out
                   && grad_out.size(0) == _inN,
               "Linear grad shape ", detail::formatShape(grad_out.shape()));
    _inN = 0;
    if (!_fwdFrozen) {
        // dW = dY^T * X  -> [out, in]
        _weight.grad += matmulTransA(grad_out, _input);
        const int n = grad_out.size(0);
        for (int j = 0; j < _out; ++j) {
            float acc = 0.0f;
            for (int i = 0; i < n; ++i)
                acc += grad_out.at(i, j);
            _bias.grad[static_cast<std::size_t>(j)] += acc;
        }
        _input = Tensor();
    }
    // dX = dY * W
    return matmul(grad_out, _weight.value);
}

// leca-analyze: cold — int8 weight pack (plan time)
void
Linear::preparePack()
{
    LECA_CHECK(quantized(), "Linear::preparePack before quantizeWeights");
    _qweight.buildPack();
}

void
Linear::quantizeWeights(std::vector<QuantStat> &stats)
{
    _qweight = quantizeRowMajor(_weight.value, _out, _in);
    stats.push_back({"Linear " + std::to_string(_in) + "->"
                         + std::to_string(_out),
                     _qweight.fp32Bytes(), _qweight.quantBytes(),
                     quantMaxAbsError(_weight.value, _qweight)});
}

} // namespace leca
