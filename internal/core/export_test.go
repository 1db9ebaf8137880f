package core

// ScribbleEscapeSrc exports the faulting extension of the rollback
// tests to the external test package.
const ScribbleEscapeSrc = scribbleEscapeSrc
