"""The CLI commands, one module each: `add_arguments(p)` fills in the
command's subparser and binds its handler as `func`.  `defdom.cli` imports
the module of the invoked command only, and every module for help and usage
errors."""
