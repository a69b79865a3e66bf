"""Anchor grids and the camera round trip.

Builds the two BEV lattices, shows how the custom grid trades lateral span
for near-field density, then projects anchors into a forward camera and
unprojects a pixel back onto the ground plane.
"""

import numpy as np

from lanekit import (build_custom_grid, build_uniform_grid, make_forward_camera,
                     project_grid_to_image, unproject_pixel_to_ground)

uniform = build_uniform_grid(rows=12, cols=8, y_range=(3.0, 58.0), x_range=(-8.0, 8.0))
custom = build_custom_grid(rows=12, cols=8, width=20.0)

print("uniform grid rows (y, half-width):")
for r in (0, 5, 11):
    xs = uniform.positions[r, :, 0]
    print(f"  row {r:2d}: y={uniform.row_y[r]:6.2f} m, x in [{xs[0]:.2f}, {xs[-1]:.2f}]")

print("custom grid rows widen with distance while row gaps grow 0.5 -> 1.5 m:")
for r in (0, 5, 11):
    xs = custom.positions[r, :, 0]
    behind = "y_origin" if r == 0 else f"row {r - 1}"   # row_spacing[r] is the gap back to it
    print(f"  row {r:2d}: y={custom.row_y[r]:6.2f} m, x in [{xs[0]:6.2f}, {xs[-1]:6.2f}], "
          f"gap of {custom.row_spacing[r]:.3f} m from {behind}")

cam = make_forward_camera(height=1.5, pitch_deg=5.0)
pmap = project_grid_to_image(custom, cam)
print(f"\nprojected {custom.rows * custom.cols} anchors, "
      f"{int(pmap.valid.sum())} land inside the {cam.image_size} image")

# Near rows cluster lower in the image; far rows approach the horizon.
for r in (0, 5, 11):
    v = pmap.pixel_coords[r, custom.cols // 2, 1]
    print(f"  row {r:2d} center projects to image row v={v:7.2f}")

u, v = pmap.pixel_coords[6, 3]
ground = unproject_pixel_to_ground(cam, (u, v))
original = custom.positions[6, 3]
print(f"\nunproject({u:.1f}, {v:.1f}) -> ({ground[0]:.4f}, {ground[1]:.4f}) m; "
      f"anchor was ({original[0]:.4f}, {original[1]:.4f}) m, "
      f"error {np.hypot(*(ground[:2] - original)):.2e} m")
