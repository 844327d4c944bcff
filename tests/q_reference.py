"""The earlier q_morphism, kept as an independent reference for the
tests.  It composes each factorization three times: the total, every
suffix from an identity, and every prefix, and reads each source
vertex's corollas off its prefix image.  brackops.dendroidal.q_morphism
reads them off the suffix composites alone."""

from fractions import Fraction

from brackops.dendroidal import (
    OmegaTildeMorphism, compose_omega, identity_omega,
)


def reference_q_morphism(gs):
    """The thickened morphism assigned to a factorization [g_1, ..., g_n]
    (applied left to right): every intermediate corolla contributes the
    image of itself under the remaining composite, with weight 1, when
    that image is a large proper subset."""
    if not gs:
        raise ValueError("empty factorization")
    for a, b in zip(gs, gs[1:]):
        if a.target != b.source:
            raise ValueError("factorization is not composable")
    total = gs[0]
    for g in gs[1:]:
        total = compose_omega(g, total)
    # suffix composites g_n o ... o g_{l+1}
    suffixes = [identity_omega(gs[-1].target)]
    for g in reversed(gs[1:]):
        suffixes.append(compose_omega(suffixes[-1], g))
    suffixes.reverse()
    n_src = len(total.vertex_images)
    fams = [dict() for _ in range(n_src)]
    prefix = None
    for l, g in enumerate(gs[:-1]):
        prefix = g if prefix is None else compose_omega(g, prefix)
        suffix = suffixes[l]
        for v in range(n_src):
            img_v = total.vertex_images[v]
            for w in prefix.vertex_images[v]:
                S_w = suffix.vertex_images[w]
                if len(S_w) >= 2 and S_w < img_v:
                    fams[v][S_w] = Fraction(1)
    return OmegaTildeMorphism(total, fams)
