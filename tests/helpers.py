"""Helpers the tests share, built from the library's own pieces."""

from chaosgame.errors import ValidationError
from chaosgame.ifs import _certified_cloud, _hutchinson_points, directed_hausdorff


def cloud_at_depth(ifs, depth):
    """Cloud of all depth-m compositions, with build_cloud's certificate."""
    cloud = _certified_cloud(ifs, _hutchinson_points(ifs, depth), depth)
    if cloud is None:
        raise ValidationError(f"depth {depth} too shallow to certify a diameter bound")
    return cloud


def hausdorff_distance(set_a, set_b):
    """Symmetric Hausdorff distance between two finite point sets."""
    return max(directed_hausdorff(set_a, set_b), directed_hausdorff(set_b, set_a))
