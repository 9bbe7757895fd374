/**
 * @file
 * Implementation of multi-head self-attention.
 */
#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/rows_attention.hpp"

namespace dota {

MultiHeadAttention::MultiHeadAttention(const std::string &name, size_t layer,
                                       size_t dim, size_t heads, Rng &rng,
                                       bool causal)
    : layer_(layer), dim_(dim), heads_(heads), head_dim_(dim / heads),
      causal_(causal), wq_(name + ".wq", Matrix::xavier(dim, dim, rng)),
      wk_(name + ".wk", Matrix::xavier(dim, dim, rng)),
      wv_(name + ".wv", Matrix::xavier(dim, dim, rng)),
      wo_(name + ".wo", Matrix::xavier(dim, dim, rng))
{
    DOTA_ASSERT(dim % heads == 0, "dim {} not divisible by heads {}", dim,
                heads);
}

Matrix
MultiHeadAttention::headSlice(const Matrix &m, size_t h) const
{
    Matrix out(m.rows(), head_dim_);
    const size_t off = h * head_dim_;
    for (size_t i = 0; i < m.rows(); ++i)
        std::copy(m.row(i) + off, m.row(i) + off + head_dim_, out.row(i));
    return out;
}

void
MultiHeadAttention::addHeadSlice(Matrix &dst, const Matrix &src,
                                 size_t h) const
{
    const size_t off = h * head_dim_;
    for (size_t i = 0; i < src.rows(); ++i)
        for (size_t j = 0; j < head_dim_; ++j)
            dst(i, off + j) += src(i, j);
}

Matrix
MultiHeadAttention::forward(const Matrix &x)
{
    const size_t n = x.rows();
    x_ = x;
    q_ = matmul(x, wq_.value);
    k_ = matmul(x, wk_.value);
    v_ = matmul(x, wv_.value);

    if (hook_)
        hook_->beginLayer(layer_, x);

    s_raw_.assign(heads_, Matrix());
    a_.assign(heads_, Matrix());
    masks_.assign(heads_, SparseMask());
    head_backends_.assign(heads_, AttnBackendKind::Dense);
    z_ = Matrix(n, dim_);

    // Per-head path (nn/attention_backend.hpp). The sparse path computes
    // scores only at each row's kept keys — the software analogue of the
    // accelerator omitting weak attentions — with the dense path's bits.
    // S and A must be captured when the hook trains on the full S (its
    // estimation loss) or a caller forced the dense path.
    const bool capture =
        force_dense_ || (hook_ != nullptr && hook_->wantsFullScores());
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    for (size_t h = 0; h < heads_; ++h) {
        // Contiguous head copies: read in place, 1 KiB rows (d = 256) put
        // a head on a quarter of the cache sets (DESIGN.md §13).
        const Matrix qh = headSlice(q_, h);
        const Matrix kh = headSlice(k_, h);
        const Matrix vh = headSlice(v_, h);

        if (hook_) {
            hook_->observeQK(layer_, h, qh, kh);
            masks_[h] = hook_->selectSparseMask(layer_, h, causal_);
        }
        // A hook mask replaces the causal constraint, on both paths.
        const SparseMask *mask = masks_[h].empty() ? nullptr : &masks_[h];

        head_backends_[h] = resolveAttnBackend(capture, mask != nullptr, n);
        if (head_backends_[h] == AttnBackendKind::Sparse) {
            // s_raw_[h]/a_[h] stay empty; observeScores skipped.
            addHeadSlice(z_, rowsAttention(qh, kh, vh, mask, causal_,
                                           inv_sqrt_dk),
                         h);
            continue;
        }

        // Raw scores S = Q K^T (pre-scaling, matching Eq. 5's target),
        // captured with A for backward.
        s_raw_[h] = matmulBT(qh, kh);
        a_[h] = keptSoftmax(s_raw_[h], mask, causal_, inv_sqrt_dk);
        addHeadSlice(z_, matmul(a_[h], vh), h);
        if (hook_)
            hook_->observeScores(layer_, h, s_raw_[h]);
    }
    return matmul(z_, wo_.value);
}

Matrix
MultiHeadAttention::backward(const Matrix &dy)
{
    DOTA_ASSERT(!x_.empty(), "backward before forward");
    DOTA_ASSERT(std::find(head_backends_.begin(), head_backends_.end(),
                          AttnBackendKind::Sparse) == head_backends_.end(),
                "backward after a sparse inference forward: only the "
                "dense path caches S/A (the trainers force it)");
    const size_t n = x_.rows();
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(head_dim_));

    // out = Z Wo
    Matrix dwo = matmulAT(z_, dy);
    for (size_t i = 0; i < dwo.size(); ++i)
        wo_.grad.data()[i] += dwo.data()[i];
    const Matrix dz = matmulBT(dy, wo_.value);

    Matrix dq(n, dim_), dk(n, dim_), dv(n, dim_);
    for (size_t h = 0; h < heads_; ++h) {
        const Matrix qh = headSlice(q_, h);
        const Matrix kh = headSlice(k_, h);
        const Matrix vh = headSlice(v_, h);
        const Matrix dzh = headSlice(dz, h);

        // Z_h = A_h V_h
        const Matrix da = matmulBT(dzh, vh);
        const Matrix dvh = matmulAT(a_[h], dzh);

        // Masked softmax backward: masked entries have A == 0, so the
        // dense formula already yields zero gradient there.
        Matrix ds = rowSoftmaxBackward(a_[h], da);
        ds = scale(ds, inv_sqrt_dk); // through S/sqrt(dk)

        // Joint optimization: add lambda * dL_MSE/dS from the hook.
        if (hook_) {
            const Matrix ds_aux = hook_->scoreGradient(layer_, h);
            if (!ds_aux.empty()) {
                DOTA_ASSERT(ds_aux.rows() == n && ds_aux.cols() == n,
                            "hook score gradient has wrong shape");
                ds = add(ds, ds_aux);
            }
        }

        // S = Q_h K_h^T
        const Matrix dqh = matmul(ds, kh);
        const Matrix dkh = matmulAT(ds, qh);

        addHeadSlice(dq, dqh, h);
        addHeadSlice(dk, dkh, h);
        addHeadSlice(dv, dvh, h);
    }

    // Q = X Wq etc.
    Matrix dwq = matmulAT(x_, dq);
    Matrix dwk = matmulAT(x_, dk);
    Matrix dwv = matmulAT(x_, dv);
    for (size_t i = 0; i < dwq.size(); ++i) {
        wq_.grad.data()[i] += dwq.data()[i];
        wk_.grad.data()[i] += dwk.data()[i];
        wv_.grad.data()[i] += dwv.data()[i];
    }

    Matrix dx = matmulBT(dq, wq_.value);
    dx = add(dx, matmulBT(dk, wk_.value));
    dx = add(dx, matmulBT(dv, wv_.value));
    return dx;
}

void
MultiHeadAttention::collectParams(std::vector<Parameter *> &out)
{
    out.push_back(&wq_);
    out.push_back(&wk_);
    out.push_back(&wv_);
    out.push_back(&wo_);
}

} // namespace dota
