"""numpy, imported on first use.

Only the array kernel, the coefficient stacks and the shadow-matrix
routines need numpy; the dict kernel that runs small elements, matrices
and polynomials does not, so `import zeonalg` leaves numpy unloaded.
`np` stands in for the numpy module. Its first attribute read imports
numpy, copies numpy's namespace into `np` and turns `np` into a plain
module: a module subclass that kept `__getattr__` would make every later
`np.` lookup slower. Threads racing on the first read wait on the import
lock for the one numpy, then copy the same namespace.
"""

import types


class _NumpyOnFirstUse(types.ModuleType):
    def __getattr__(self, name):
        import numpy

        self.__dict__.update(numpy.__dict__)
        self.__class__ = types.ModuleType
        return getattr(numpy, name)


np = _NumpyOnFirstUse("numpy")
