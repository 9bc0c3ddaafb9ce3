"""Exception hierarchy shared by all meshsig modules."""


class MeshSigError(Exception):
    """Base class for all library errors."""


class InvalidMesh(MeshSigError):
    """Mesh construction rejected (bad shape, non-finite or duplicate points)."""


class MeshParseError(InvalidMesh):
    """A mesh file could not be parsed; message carries line/field anchors."""


class IndexOutOfRange(MeshSigError, IndexError):
    """A required neighborhood index does not exist on an open mesh."""


class DegenerateArm(MeshSigError):
    """An angle arm has zero length."""


class DegenerateTriple(MeshSigError):
    """Two of the three stencil points coincide."""


class DegenerateStencil(MeshSigError):
    """A difference-quotient denominator vanished (tiny chord or arc length)."""


class OutOfDomain(MeshSigError, ValueError):
    """Angle classification asked outside (0, pi)."""


class CollinearPoints(MeshSigError):
    """Circumcircle of a collinear triple requested."""


class InvalidGroupElement(MeshSigError):
    """Matrix violates the invariant of the declared transformation group."""


class SchemeSpacingMismatch(MeshSigError):
    """Equal-spacing signature scheme applied to an unequally spaced mesh."""


class MeshTooShort(MeshSigError):
    """Mesh has too few points for the requested stencil."""


class NotOrdinary(MeshSigError):
    """Operation requires a cusp-free mesh."""


class NotConvex(MeshSigError):
    """Operation requires a convex mesh."""


class DegenerateConfiguration(MeshSigError):
    """Conic fit impossible: coincident points or a collinear triple (no unique conic), each judged in the
    window's frame, its differences to the centre point scaled by a power of two. These two screens are the
    equiaffine layer's only degeneracy test: any other window has one conic, with F != 0 (`affine._fit`).
    Also raised by `sd_affine` for a window not in convex position, and by `kappa_from_invariants` for F = 0."""


class ParabolicConic(MeshSigError):
    """Conic center undefined: quadratic invariant is zero (parabola)."""


class WrongCurvatureSign(MeshSigError):
    """Fineness predicate called on a point with the wrong curvature sign."""


class NonRealMu(MeshSigError):
    """Hyperbola gap bound is not real for this coefficient normalization."""


class LengthMismatch(MeshSigError):
    """Meshes have different point counts."""


class NoNonCollinearTriple(MeshSigError):
    """Unimodular alignment found no usable non-collinear triple."""


class NotClosed(MeshSigError):
    """Operation requires closed meshes."""


class InvalidStep(MeshSigError, ValueError):
    """Traversal step outside [1, n)."""
