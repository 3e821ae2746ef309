"""Draw the gasket: the swap reflections act jointly on curvatures and
curvature-times-center coordinates, so the whole picture propagates
linearly from one exactly-placed root quadruple, one tree level at a time.
"""

from apollonian.cli import render_svg

with open("gasket.svg", "w") as fh:
    count = render_svg((-11, 21, 24, 28), depth=6, fh=fh)
print("wrote gasket.svg,", count, "circles")
