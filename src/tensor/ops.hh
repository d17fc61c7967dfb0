/**
 * @file
 * Numeric ops over Tensor: matrix multiply variants, convolution, global
 * pooling, and resampling. These are the only hot loops in
 * the training framework; everything in nn/ composes them. The dense
 * inner kernels (packed blocked GEMM, the fp32 conv engine) live in
 * tensor/kernels.hh; this layer adds Tensor shapes and contracts.
 */

#ifndef LECA_TENSOR_OPS_HH
#define LECA_TENSOR_OPS_HH

#include "tensor/tensor.hh"

namespace leca {

/** C = A (MxK) * B (KxN). */
Tensor matmul(const Tensor &a, const Tensor &b);

/** C = A^T * B where A is (KxM), B is (KxN) -> C is (MxN). */
Tensor matmulTransA(const Tensor &a, const Tensor &b);

/** C = A * B^T where A is (MxK), B is (NxK) -> C is (MxN). */
Tensor matmulTransB(const Tensor &a, const Tensor &b);

/** Output spatial extent of a convolution along one axis. */
int convOutSize(int in, int k, int stride, int pad);

/**
 * Batched 2-D convolution: the conv engine's forward pass
 * (tensor/kernels.hh), so it computes the same bits as Conv2d.
 *
 * @param x      input [N, Cin, H, W]
 * @param weight [Cout, Cin, kh, kw]
 * @param bias   [Cout] or empty tensor for no bias
 */
Tensor conv2d(const Tensor &x, const Tensor &weight, const Tensor &bias,
              int stride, int pad);

/** Global average pool: [N,C,H,W] -> [N,C]. */
Tensor globalAvgPool(const Tensor &x);

/** Bilinear resize of [N,C,H,W] to [N,C,outH,outW] (align_corners=false). */
Tensor bilinearResize(const Tensor &x, int out_h, int out_w);

/** Per-row softmax of a [N, K] logit matrix. */
Tensor softmax(const Tensor &logits);

/** Index of the maximum entry in each row of a [N, K] matrix. */
std::vector<int> argmaxRows(const Tensor &m);

/** Mean of all elements. */
double mean(const Tensor &t);

/** Mean squared error between two same-shaped tensors. */
double mse(const Tensor &a, const Tensor &b);

/** Peak signal-to-noise ratio in dB for signals in [0, 1]. */
double psnrDb(const Tensor &reference, const Tensor &test);

} // namespace leca

#endif // LECA_TENSOR_OPS_HH
