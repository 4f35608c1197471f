"""Ground-truth checks of every workload output.

Each check recomputes its reference without the code under test where it
can: disparity from ``focal * baseline / Z`` of the scene's own object
paths, the epipolar line from the rectified geometry, the GMM likelihood
with ``scipy.special.logsumexp``.  A check raises ``CheckFailed`` naming the
first offending item; the benchmark then reports ``"correct": false``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from trailblaze import encoding

TRACK_TOL_PX = 0.75       # largest error of a track's displacement from its sprite's
OWNER_MARGIN_PX = 2.5     # a point this close to a sprite's square belongs to it
DISPARITY_TOL_PX = {"sparse": 2.5, "dense": 0.5}   # per stereo pair
DISPARITY_BIAS = 0.03     # largest |median(d / d_true) - 1|
EPIPOLAR_TOL_PX = 1.0
# share of proposed stereo pairs that pass the glue's filter, pooled over a
# corpus; seeds 1-20 read 0.959-0.969 (sparse), seeds 1-10 read 1.0 (dense)
ACCEPTED_SHARE_MIN = {"sparse": 0.9, "dense": 0.98}
FV_NORM_TOL = 1e-9
LOGLIK_RTOL = 1e-9
ACCURACY_MARGIN = 0.25    # accuracy must exceed chance (1 / classes) by this much


class CheckFailed(AssertionError):
    """An output of the program disagrees with the ground truth."""


def _owners(points, centers, half):
    """Index of the sprite whose square (grown by the margin) holds each point, or -1."""
    inside = np.all(np.abs(points[:, None, :] - centers[None]) <= half + OWNER_MARGIN_PX, axis=2)
    if (inside.sum(axis=1) > 1).any():
        raise CheckFailed("a point lies in two sprites; the scene makes ownership ambiguous")
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def check_tracks(trajectories, starts, left_uv, sprite: int) -> None:
    """Each track moves like the sprite it started on; a track off every sprite stays put.

    trajectories: (T, l + 1, >= 2) points in consecutive frames from ``starts``;
    left_uv: GroundTruth.left_uv, (frames, objects, 2).
    """
    half = (sprite - 1) / 2.0
    for i, (traj, s) in enumerate(zip(trajectories, starts)):
        xy = traj[:, :2]
        owner = _owners(xy[:1], left_uv[s], half)[0]
        frames = np.arange(s, s + len(xy))
        expected = (left_uv[frames, owner] - left_uv[s, owner]) if owner >= 0 else 0.0
        err = np.abs((xy - xy[0]) - expected).max()
        if err > TRACK_TOL_PX:
            raise CheckFailed(f"track {i} from frame {s}: displacement off by {err:.3f} px "
                              f"(tolerance {TRACK_TOL_PX})")


def true_disparity(spec) -> np.ndarray:
    """focal * baseline / Z per frame and object, from the scene's object paths."""
    return np.array([[spec.focal * spec.baseline / obj.center(t)[2] for obj in spec.objects]
                     for t in range(spec.frames)])


def check_stereo_pairs(pairs, spec, left_uv, sprite: int, tol_px: float) -> np.ndarray:
    """Disparity of each accepted pair near f*b/Z, and each pair on its epipolar line.

    pairs: (P, 5) rows of frame, x_left, y_left, x_right, y_right.  Returns
    the ratios of measured to true disparity, for ``check_disparity_bias``.
    """
    if spec.toein != 0.0:
        raise CheckFailed("disparity truth f*b/Z holds only for parallel cameras")
    if len(pairs) == 0:
        raise CheckFailed("no stereo pair was accepted")
    frames = pairs[:, 0].astype(int)
    left, right = pairs[:, 1:3], pairs[:, 3:5]
    # parallel cameras: the epipolar line of a right point is its own image row
    epi = np.abs(left[:, 1] - right[:, 1])
    if epi.max() > EPIPOLAR_TOL_PX:
        k = int(epi.argmax())
        raise CheckFailed(f"pair {k} lies {epi[k]:.3f} px off its epipolar line")
    half = (sprite - 1) / 2.0
    owners = np.array([_owners(p[None], left_uv[f], half)[0] for f, p in zip(frames, left)])
    if (owners < 0).any():
        raise CheckFailed(f"{int((owners < 0).sum())} stereo pairs lie on no sprite")
    truth = true_disparity(spec)[frames, owners]
    disp = left[:, 0] - right[:, 0]
    err = np.abs(disp - truth)
    if err.max() > tol_px:
        k = int(err.argmax())
        raise CheckFailed(f"pair {k} in frame {frames[k]}: disparity {disp[k]:.3f}, "
                          f"truth {truth[k]:.3f} (tolerance {tol_px} px)")
    return disp / truth


def check_accepted_share(accepted: int, proposed: int, floor: float) -> float:
    """Few proposed stereo pairs fail the glue's epipolar and disparity-range filter.

    The filter drops wrong pairs before ``check_stereo_pairs`` sees them, so a
    matcher that proposes wrong pairs shows as a falling share.  Returns the share.
    """
    share = accepted / proposed if proposed else 0.0
    if share < floor:
        raise CheckFailed(f"{accepted} of {proposed} proposed stereo pairs accepted "
                          f"({share:.3f}, floor {floor})")
    return share


def check_disparity_bias(ratios) -> None:
    """The median ratio of measured to true disparity over all pairs is near 1.

    Pooled over a corpus, since one clip's subpixel offset can bias its own
    integer-pixel matches by up to half a pixel.
    """
    bias = abs(float(np.median(np.concatenate(ratios))) - 1.0)
    if bias > DISPARITY_BIAS:
        raise CheckFailed(f"median disparity ratio off by {bias:.3f} (tolerance {DISPARITY_BIAS})")


def descriptor_dim(l: int, r: int) -> int:
    """N of an order-r shape descriptor of l + 1 points in (x, y, d).

    The k-th derivative of l + 1 points has l + 1 - k points of 3 coordinates.
    """
    return 3 * sum(l + 1 - k for k in range(1, r + 1))


def check_fisher_vectors(fvs, n: int, k: int) -> None:
    """Finite, unit L2 norm, dimension 2 * N * K."""
    fvs = np.atleast_2d(fvs)
    if fvs.shape[1] != 2 * n * k:
        raise CheckFailed(f"Fisher vector dimension {fvs.shape[1]}, expected {2 * n * k}")
    if not np.isfinite(fvs).all():
        raise CheckFailed("Fisher vector has non-finite entries")
    norms = np.linalg.norm(fvs, axis=1)
    if np.abs(norms - 1.0).max() > FV_NORM_TOL:
        raise CheckFailed(f"Fisher vector norm {norms[np.abs(norms - 1.0).argmax()]!r} is not 1")


def reference_log_likelihood(X, weights, means, variances) -> float:
    """Diagonal-GMM log-likelihood, written out with scipy's logsumexp."""
    X = np.atleast_2d(X)
    log_norm = -0.5 * (np.log(2.0 * np.pi * variances).sum(axis=1))     # (K,)
    quad = np.stack([(((X - m) ** 2) / v).sum(axis=1) for m, v in zip(means, variances)],
                    axis=1)                                            # (T, K)
    return float(logsumexp(np.log(weights) + log_norm - 0.5 * quad, axis=1).sum())


def check_log_likelihood(X, codebook) -> None:
    """encoding.gmm_log_likelihood agrees with the logsumexp reference."""
    got = encoding.gmm_log_likelihood(X, codebook.weights, codebook.means, codebook.variances)
    want = reference_log_likelihood(X, codebook.weights, codebook.means, codebook.variances)
    if not abs(got - want) <= LOGLIK_RTOL * max(1.0, abs(want)):
        raise CheckFailed(f"gmm_log_likelihood {got!r} differs from reference {want!r}")


def check_confusion(cm, videos) -> float:
    """Every video counted once in its own row; accuracy above chance by the margin.

    Returns the accuracy.
    """
    labels = tuple(sorted({v.label for v in videos}))
    if tuple(cm.labels) != labels:
        raise CheckFailed(f"confusion labels {cm.labels} differ from {labels}")
    rows = cm.counts.sum(axis=1)
    for lab, got in zip(labels, rows):
        want = sum(v.label == lab for v in videos)
        if got != want:
            raise CheckFailed(f"class {lab}: {got} videos counted, {want} exist")
    acc = float(np.trace(cm.counts)) / float(cm.counts.sum())
    need = 1.0 / len(labels) + ACCURACY_MARGIN
    if acc < need:
        raise CheckFailed(f"accuracy {acc:.3f} below chance plus margin ({need:.3f})")
    return acc
