"""Reference code the tests compare the package against: a finite-difference
gradient check, scalar normal draws, a per-tensor Adam step, the batch-norm
input gradient in its mean form and the encoder's forward pass stage by
stage, without the folded attention."""

import math

import numpy as np


def grad_check(f, params: dict, analytic_grads: dict, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    ``f`` is called as ``f(params)`` and must be a deterministic scalar
    function of the arrays in ``params``. The arrays are perturbed in place,
    one coordinate at a time, and restored afterwards. The relative error per
    coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if h <= 0:
        raise ValueError("step h must be > 0")
    worst = 0.0
    for name, theta in params.items():
        grad = np.asarray(analytic_grads[name])
        if grad.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        if not theta.flags.c_contiguous:
            raise ValueError(f"parameter {name!r} must be C-contiguous "
                             "(reshape would copy and in-place perturbation would be lost)")
        flat = theta.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(params))
            flat[i] = orig - h
            f_minus = float(f(params))
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ValueError(f"non-finite loss while perturbing {name!r}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(gflat[i])
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst


def scalar_normal(rng, mean: float = 0.0, std: float = 1.0) -> float:
    """One Box-Muller normal from a RandomSource: two uniforms, the cosine
    branch only. Test tables drawn this way keep the bytes they always had."""
    u1 = 1.0 - rng.uniform()  # (0, 1]: keeps log finite
    u2 = rng.uniform()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + std * z


def adam_loop(tensors: dict, grads: dict, m: dict, v: dict, t: int, decay: dict,
              lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0) -> None:
    """Step ``t`` (from 1) of bias-corrected Adam with decoupled weight decay,
    one tensor at a time, updating ``tensors``, ``m`` and ``v`` in place."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, theta in tensors.items():
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * np.square(g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay > 0.0 and decay[name]:
            update = update + lr * weight_decay * theta
        theta -= update


def batchnorm_backward_mean_form(d_out, x_hat, inv_std, gamma):
    """Train-mode batch-norm input gradient as the column means it subtracts:
    d_x_hat = gamma * d_out, then inv_std * (d_x_hat - mean(d_x_hat)
    - x_hat * mean(d_x_hat * x_hat)), each mean over the batch."""
    d_x_hat = d_out * gamma
    return inv_std * (d_x_hat - d_x_hat.mean(axis=0)
                      - x_hat * np.mean(d_x_hat * x_hat, axis=0))


def unfolded_forward(x, params, mode: str = "eval", mask=None) -> dict:
    """The encoder without the attention fold, one stage at a time: modulated
    embeddings diag(x_b) E, residual message passing over the masked
    adjacency, (B, n, dk) query, key and value, scaled scores, softmax,
    attended rows, their (B, n*dk) flattening and the projection head.

    Returns stage name -> array. ``mode`` picks the batch-norm statistics:
    the running ones ("eval") or the batch's own ("train", which leaves the
    running statistics alone). ``mask`` is a dropout mask to apply after the
    ReLU, such as the one a train-mode forward_batch drew.
    """
    x = np.asarray(x, dtype=np.float64)
    b, n = x.shape
    factors = params.interaction_factors
    vhat = factors / np.linalg.norm(factors, axis=1)[:, None]
    adjacency = vhat @ vhat.T
    masked = adjacency - np.diag(np.diag(adjacency))
    modulated = x[:, :, None] * params.embeddings
    mixed = modulated + np.matmul(masked, modulated) / (n - 1)
    query, key, value = (mixed @ w for w in (params.w_query, params.w_key, params.w_value))
    scores = np.matmul(query, np.swapaxes(key, -1, -2)) / math.sqrt(query.shape[-1])
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attention = shifted / shifted.sum(axis=-1, keepdims=True)
    attended = np.matmul(attention, value)
    flat = attended.reshape(b, -1)
    pre = flat @ params.w_hidden
    bn = params.bn
    if mode == "train":
        mean, var = pre.mean(axis=0), pre.var(axis=0)
    else:
        mean, var = bn.running_mean, bn.running_var
    epsilon = params.arch.bn_epsilon
    hidden = np.maximum(bn.gamma * (pre - mean) / np.sqrt(var + epsilon) + bn.beta, 0.0)
    if mask is not None:
        hidden = hidden * mask
    head = hidden @ params.w_out + params.b_out
    norms = np.linalg.norm(head, axis=1)
    features = head / np.where(norms <= 1e-12, 1.0, norms)[:, None]
    return {"adjacency": adjacency, "masked": masked, "modulated": modulated, "mixed": mixed,
            "query": query, "key": key, "value": value, "scores": scores,
            "attention": attention, "attended": attended, "flat": flat, "pre": pre,
            "features": features}
