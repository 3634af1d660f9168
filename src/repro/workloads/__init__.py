"""Synthetic workload generators for the examples and benchmark harness.

Every generator is seeded and pure, so the benchmark suite is exactly
reproducible.  See DESIGN.md's substitution table: these generators stand in
for data the paper assumes (arrays, property lists, digitized images from
"continuous terrain scanning").
"""

from repro.workloads.arrays import array_tuples, phase_tagged_tuples, random_array
from repro.workloads.plists import (
    property_list_rows,
    random_property_list,
    chain_order,
)
from repro.workloads.images import (
    Image,
    random_blob_image,
    checkerboard_image,
    stripe_image,
    image_tuples,
    connected_regions,
)
from repro.workloads.soup import soup_rows

__all__ = [
    "random_array",
    "array_tuples",
    "phase_tagged_tuples",
    "random_property_list",
    "property_list_rows",
    "chain_order",
    "Image",
    "random_blob_image",
    "checkerboard_image",
    "stripe_image",
    "image_tuples",
    "connected_regions",
    "soup_rows",
]
